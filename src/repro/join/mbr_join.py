"""The filter step: MBR intersection joins.

Produces the stream of candidate pairs ``(i, j)`` whose MBRs intersect,
which the topology pipelines then process:
:func:`plane_sweep_mbr_join`, the forward-scan plane sweep of [39] —
sort both inputs by ``xmin`` and scan, comparing each rectangle only
against opposite-side rectangles whose x-intervals reach it (tested
against the brute-force product, ``tests/oracles/mbr_join.py``; the paper excludes this step's cost
from all measurements).
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry.box import Box


def plane_sweep_mbr_join(
    r_boxes: Sequence[Box], s_boxes: Sequence[Box]
) -> list[tuple[int, int]]:
    """Forward-scan plane sweep MBR intersection join [39].

    ``O((|R| + |S|) log(|R| + |S|) + k)`` for typical spatial data.
    Returns pairs ``(i, j)`` with ``r_boxes[i]`` intersecting
    ``s_boxes[j]``, in no particular order.
    """
    events: list[tuple[float, int, int, Box]] = []
    for i, b in enumerate(r_boxes):
        events.append((b.xmin, 0, i, b))
    for j, b in enumerate(s_boxes):
        events.append((b.xmin, 1, j, b))
    events.sort(key=lambda e: (e[0], e[1]))

    result: list[tuple[int, int]] = []
    active_r: list[tuple[float, int, Box]] = []  # (xmax, index, box)
    active_s: list[tuple[float, int, Box]] = []
    for xmin, side, index, box in events:
        if side == 0:
            active_s[:] = [e for e in active_s if e[0] >= xmin]
            for _, j, sb in active_s:
                if box.ymin <= sb.ymax and sb.ymin <= box.ymax:
                    result.append((index, j))
            active_r.append((box.xmax, index, box))
        else:
            active_r[:] = [e for e in active_r if e[0] >= xmin]
            for _, i, rb in active_r:
                if box.ymin <= rb.ymax and rb.ymin <= box.ymax:
                    result.append((i, index))
            active_s.append((box.xmax, index, box))
    return result


__all__ = ["plane_sweep_mbr_join"]

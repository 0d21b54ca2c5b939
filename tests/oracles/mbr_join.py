"""The quadratic MBR join.

Oracle for :func:`repro.join.mbr_join.plane_sweep_mbr_join`: every
``(i, j)`` whose closed boxes share a point, by testing all pairs.
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry.box import Box


def brute_force_mbr_join(r_boxes: Sequence[Box], s_boxes: Sequence[Box]) -> list[tuple[int, int]]:
    """Every intersecting pair, in ``(i, j)`` order."""
    return [
        (i, j)
        for i, rb in enumerate(r_boxes)
        for j, sb in enumerate(s_boxes)
        if rb.intersects(sb)
    ]

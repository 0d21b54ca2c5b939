"""The filter step: MBR intersection joins.

Produces the stream of candidate pairs ``(i, j)`` whose MBRs intersect,
which the topology pipelines then process:
:func:`plane_sweep_mbr_join`, the forward-scan plane sweep of [39] —
sort both inputs by ``xmin`` and scan, comparing each rectangle only
against opposite-side rectangles whose x-intervals reach it (tested
against the brute-force product; the paper excludes this step's cost
from all measurements).

:class:`TileLayout` is the single definition of PBSM-style [27] tile
arithmetic — which tiles a box is replicated to and which one tile
owns an intersecting pair — for the out-of-core join
(:mod:`repro.join.diskjoin`), the only partitioner that tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.geometry.box import Box


def brute_force_mbr_join(r_boxes: Sequence[Box], s_boxes: Sequence[Box]) -> list[tuple[int, int]]:
    """Quadratic reference implementation (tests and tiny inputs)."""
    return [
        (i, j)
        for i, rb in enumerate(r_boxes)
        for j, sb in enumerate(s_boxes)
        if rb.intersects(sb)
    ]


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


@dataclass(frozen=True)
class TileLayout:
    """A uniform ``tiles_per_dim x tiles_per_dim`` partitioning grid.

    Replication (:meth:`tile_range`) and owner-tile deduplication
    (:meth:`owner_tile`) live together so both always use the *same*
    float arithmetic: every intersecting pair is owned by exactly one
    tile, and that tile is one both boxes were replicated to.
    """

    universe: Box
    tiles_per_dim: int

    @property
    def tile_w(self) -> float:
        return self.universe.width / self.tiles_per_dim or 1.0

    @property
    def tile_h(self) -> float:
        return self.universe.height / self.tiles_per_dim or 1.0

    def _clamp(self, value: int) -> int:
        return min(self.tiles_per_dim - 1, max(0, value))

    def tile_range(self, b: Box) -> tuple[int, int, int, int]:
        """Inclusive clamped tile span ``(cx0, cy0, cx1, cy1)`` of a box."""
        cx0 = self._clamp(int((b.xmin - self.universe.xmin) / self.tile_w))
        cy0 = self._clamp(int((b.ymin - self.universe.ymin) / self.tile_h))
        cx1 = self._clamp(int((b.xmax - self.universe.xmin) / self.tile_w))
        cy1 = self._clamp(int((b.ymax - self.universe.ymin) / self.tile_h))
        return cx0, cy0, cx1, cy1

    def owner_tile(
        self,
        r_span: tuple[int, int, int, int],
        s_span: tuple[int, int, int, int],
    ) -> tuple[int, int]:
        """Owner tile of an intersecting pair, from the boxes' tile spans.

        The reference point ``(max(xmins), max(ymins))`` always lies in
        the tile ``(max(cx0s), max(cy0s))`` *when computed with the same
        arithmetic as* :meth:`tile_range`; deriving the owner from the
        spans (rather than re-dividing the reference coordinates) keeps
        it consistent by construction, and the final clamp into the
        jointly-replicated span guarantees the owner is a tile both
        boxes were hashed to even for edges landing exactly on tile
        boundaries.
        """
        rx0, ry0, rx1, ry1 = r_span
        sx0, sy0, sx1, sy1 = s_span
        owner_x = min(max(rx0, sx0), rx1, sx1)
        owner_y = min(max(ry0, sy0), ry1, sy1)
        return owner_x, owner_y


__all__ = [
    "TileLayout",
    "brute_force_mbr_join",
    "plane_sweep_mbr_join",
]

"""Linear rings: closed, non-self-intersecting vertex chains.

A :class:`Ring` stores its vertices *open* (the closing edge back to the
first vertex is implicit). Rings are the building blocks of
:class:`repro.geometry.polygon.Polygon` — one shell plus zero or more
holes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

from repro.geometry.box import Box
from repro.geometry.segment import (
    SegmentIntersectionKind,
    segment_intersection,
)

Coord = tuple[float, float]


class Ring:
    """An implicitly-closed chain of at least three distinct vertices."""

    __slots__ = ("coords", "__dict__")

    def __init__(self, coords: Sequence[Coord]) -> None:
        pts = [(float(x), float(y)) for x, y in coords]
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts.pop()  # accept WKT-style explicitly closed input
        if len(pts) < 3:
            raise ValueError(f"a ring needs at least 3 distinct vertices, got {len(pts)}")
        deduped: list[Coord] = [pts[0]]
        for p in pts[1:]:
            if p != deduped[-1]:
                deduped.append(p)
        if len(deduped) >= 2 and deduped[0] == deduped[-1]:
            deduped.pop()
        if len(deduped) < 3:
            raise ValueError("ring collapses to fewer than 3 distinct vertices")
        self.coords: list[Coord] = deduped

    @classmethod
    def from_normalised(cls, coords: list[Coord]) -> "Ring":
        """A ring over ``coords`` exactly as given, skipping validation.

        For readers of rings this class already normalised once (the
        columnar geometry file of :mod:`repro.store.columns`): the
        caller vouches that ``coords`` is what ``Ring(coords).coords``
        would be — open, float pairs, no repeated neighbours, at least
        three vertices.
        """
        ring = cls.__new__(cls)
        ring.coords = coords
        return ring

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Coord]:
        return iter(self.coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(tuple(self.coords))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ring({len(self.coords)} vertices)"

    def edges(self) -> Iterator[tuple[Coord, Coord]]:
        """All edges including the implicit closing edge."""
        coords = self.coords
        for i in range(len(coords) - 1):
            yield coords[i], coords[i + 1]
        yield coords[-1], coords[0]

    @cached_property
    def bbox(self) -> Box:
        """Minimum bounding rectangle of the ring."""
        return Box.from_points(self.coords)

    # ------------------------------------------------------------------
    # measures and orientation
    # ------------------------------------------------------------------
    @cached_property
    def signed_area(self) -> float:
        """Shoelace area: positive for counter-clockwise rings."""
        coords = self.coords
        total = 0.0
        x0, y0 = coords[0]
        for i in range(1, len(coords) - 1):
            x1, y1 = coords[i]
            x2, y2 = coords[i + 1]
            total += (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        return total / 2.0

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @property
    def is_ccw(self) -> bool:
        return self.signed_area > 0.0

    @cached_property
    def perimeter(self) -> float:
        total = 0.0
        for (ax, ay), (bx, by) in self.edges():
            total += ((bx - ax) ** 2 + (by - ay) ** 2) ** 0.5
        return total

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def reversed(self) -> "Ring":
        """The same ring traversed in the opposite direction."""
        return Ring(list(reversed(self.coords)))

    def oriented(self, ccw: bool) -> "Ring":
        """This ring, re-traversed so that ``is_ccw == ccw``."""
        if self.is_ccw == ccw:
            return self
        return self.reversed()

    def translated(self, dx: float, dy: float) -> "Ring":
        return Ring([(x + dx, y + dy) for x, y in self.coords])

    def scaled(self, factor: float, origin: Coord = (0.0, 0.0)) -> "Ring":
        ox, oy = origin
        return Ring([(ox + (x - ox) * factor, oy + (y - oy) * factor) for x, y in self.coords])

    # ------------------------------------------------------------------
    # validity
    # ------------------------------------------------------------------
    def is_simple(self) -> bool:
        """True iff no two non-adjacent edges intersect and adjacent edges
        meet only at their shared vertex.

        Uses a sort-by-xmin forward scan, so typical cost is close to
        ``O(n log n)`` rather than the naive quadratic pairing.
        """
        edges = list(self.edges())
        n = len(edges)
        if n < 3:
            return False

        # (xmin, xmax, index, a, b) sorted by xmin for the forward scan.
        items = []
        for i, (a, b) in enumerate(edges):
            xmin, xmax = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
            items.append((xmin, xmax, i, a, b))
        items.sort(key=lambda t: t[0])

        active: list[tuple[float, int, Coord, Coord]] = []
        for xmin, xmax, i, a, b in items:
            still_active = []
            for other in active:
                if other[0] >= xmin:
                    still_active.append(other)
            active = still_active
            for _, j, c, d in active:
                if not _edges_compatible(i, j, n, a, b, c, d):
                    return False
            active.append((xmax, i, a, b))
        return True


def _edges_compatible(i: int, j: int, n: int, a: Coord, b: Coord, c: Coord, d: Coord) -> bool:
    """True when edges ``i`` and ``j`` of an ``n``-edge ring may coexist in
    a simple ring: disjoint, or adjacent and sharing only the joint vertex."""
    inter = segment_intersection(a, b, c, d)
    if inter.kind is SegmentIntersectionKind.NONE:
        return True
    if inter.kind is SegmentIntersectionKind.OVERLAP:
        return False
    adjacent = (i + 1) % n == j or (j + 1) % n == i
    if not adjacent:
        return False
    # Adjacent edges must meet exactly at their shared vertex.
    shared = b if (i + 1) % n == j else d
    return inter.kind is SegmentIntersectionKind.TOUCH and inter.points[0] == shared

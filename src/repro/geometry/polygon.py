"""Polygons with holes.

A :class:`Polygon` is one shell :class:`~repro.geometry.ring.Ring` plus
zero or more hole rings. By convention (enforced on construction) the
shell is stored counter-clockwise and holes clockwise; input rings in any
orientation are normalised.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

from repro.geometry.box import Box
from repro.geometry.predicates import Location, locate_point_in_polygon
from repro.geometry.ring import Coord, Ring


class Polygon:
    """A simple polygon with optional holes.

    Parameters
    ----------
    shell:
        The outer ring (any orientation; normalised to CCW) or a raw
        coordinate sequence.
    holes:
        Inner rings (normalised to CW). Holes are assumed to lie inside
        the shell and be mutually non-overlapping; :meth:`is_valid` can
        verify this when needed.
    """

    __slots__ = ("shell", "holes", "__dict__")

    def __init__(
        self,
        shell: Ring | Sequence[Coord],
        holes: Sequence[Ring | Sequence[Coord]] = (),
    ) -> None:
        if not isinstance(shell, Ring):
            shell = Ring(shell)
        self.shell: Ring = shell.oriented(ccw=True)
        normalised: list[Ring] = []
        for hole in holes:
            if not isinstance(hole, Ring):
                hole = Ring(hole)
            normalised.append(hole.oriented(ccw=False))
        self.holes: tuple[Ring, ...] = tuple(normalised)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_normalised(cls, shell: Ring, holes: tuple[Ring, ...] = ()) -> "Polygon":
        """A polygon over rings already in stored orientation (shell
        CCW, holes CW), skipping the orientation pass — the counterpart
        of :meth:`Ring.from_normalised` for stored geometry."""
        polygon = cls.__new__(cls)
        polygon.shell = shell
        polygon.holes = holes
        return polygon

    @staticmethod
    def box(xmin: float, ymin: float, xmax: float, ymax: float) -> "Polygon":
        """An axis-aligned rectangle polygon."""
        return Polygon([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def rings(self) -> Iterator[Ring]:
        """Shell first, then holes."""
        yield self.shell
        yield from self.holes

    def edges(self) -> Iterator[tuple[Coord, Coord]]:
        """All boundary edges of every ring."""
        for ring in self.rings():
            yield from ring.edges()

    @cached_property
    def bbox(self) -> Box:
        """The polygon's MBR (the shell's MBR)."""
        return self.shell.bbox

    @cached_property
    def num_vertices(self) -> int:
        """Total vertex count over all rings — the paper's complexity measure."""
        return sum(len(r) for r in self.rings())

    @cached_property
    def area(self) -> float:
        """Enclosed area (shell minus holes)."""
        return self.shell.area - sum(h.area for h in self.holes)

    @property
    def perimeter(self) -> float:
        return sum(r.perimeter for r in self.rings())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polygon({len(self.shell)} shell vertices, {len(self.holes)} holes)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polygon)
            and self.shell == other.shell
            and self.holes == other.holes
        )

    def __hash__(self) -> int:
        return hash((self.shell, self.holes))

    @property
    def is_connected(self) -> bool:
        """A (single) polygon's interior is always connected."""
        return True

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def locate(self, point: Coord) -> Location:
        """INTERIOR / BOUNDARY / EXTERIOR classification of ``point``."""
        return locate_point_in_polygon(point, self)

    def contains_point(self, point: Coord) -> bool:
        """True iff ``point`` lies in the closed polygon."""
        return self.locate(point) is not Location.EXTERIOR

    def is_valid(self) -> bool:
        """Structural validity: every ring simple, holes inside the shell,
        hole interiors pairwise disjoint (vertex-sample approximation).

        This is an O(n^2)-ish diagnostic intended for tests and data
        generators, not for the hot join path.
        """
        for ring in self.rings():
            if not ring.is_simple():
                return False
        for hole in self.holes:
            if not self.shell.bbox.contains_box(hole.bbox):
                return False
            for x, y in hole.coords:
                from repro.geometry.predicates import locate_point_in_ring

                if locate_point_in_ring((x, y), self.shell) is Location.EXTERIOR:
                    return False
        for i, h1 in enumerate(self.holes):
            for h2 in self.holes[i + 1 :]:
                if h1.bbox.intersects(h2.bbox):
                    from repro.geometry.predicates import locate_point_in_ring

                    for p in h1.coords:
                        if locate_point_in_ring(p, h2) is Location.INTERIOR:
                            return False
        return True

    # ------------------------------------------------------------------
    # representative point
    # ------------------------------------------------------------------
    @cached_property
    def representative_point(self) -> Coord:
        """A deterministic point strictly inside the polygon's interior.

        Used by the DE-9IM engine for the interior/interior test when the
        boundaries never leave each other (e.g. equal polygons). Scans a
        handful of horizontal lines through the MBR, intersects them with
        every ring edge, and picks the midpoint of an interior span.
        """
        bbox = self.bbox
        # Deterministic sweep fractions; irrational-ish offsets dodge
        # vertex alignments in gridded data.
        for frac in (0.5, 0.382, 0.618, 0.271, 0.729, 0.137, 0.863, 0.049, 0.951):
            y = bbox.ymin + frac * (bbox.ymax - bbox.ymin)
            candidate = self._interior_point_on_line(y)
            if candidate is not None:
                return candidate
        # Extremely thin/degenerate polygon: fall back to probing near
        # each vertex (still deterministic).
        for ax, ay in self.shell.coords:
            for dx, dy in ((1e-9, 1e-9), (-1e-9, 1e-9), (1e-9, -1e-9), (-1e-9, -1e-9)):
                p = (ax + dx * max(1.0, abs(ax)), ay + dy * max(1.0, abs(ay)))
                if self.locate(p) is Location.INTERIOR:
                    return p
        raise ValueError("could not find an interior point; polygon may be degenerate")

    def representative_points(self) -> Iterator[Coord]:
        """One interior witness per interior component (one, here).

        Part of the protocol shared with
        :class:`~repro.geometry.multipolygon.MultiPolygon`, whose
        interior has one component per part.
        """
        yield self.representative_point

    def _interior_point_on_line(self, y: float) -> Coord | None:
        xs: list[float] = []
        for (ax, ay), (bx, by) in self.edges():
            if ay == by:
                continue  # horizontal edges contribute no crossing
            if (ay > y) != (by > y):
                xs.append(ax + (y - ay) * (bx - ax) / (by - ay))
        if len(xs) < 2:
            return None
        xs.sort()
        best: Coord | None = None
        best_span = 0.0
        for i in range(0, len(xs) - 1):
            span = xs[i + 1] - xs[i]
            if span <= best_span:
                continue
            mid = ((xs[i] + xs[i + 1]) / 2.0, y)
            if self.locate(mid) is Location.INTERIOR:
                best = mid
                best_span = span
        return best

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def translated(self, dx: float, dy: float) -> "Polygon":
        return Polygon(
            self.shell.translated(dx, dy), [h.translated(dx, dy) for h in self.holes]
        )

    def scaled(self, factor: float, origin: Coord | None = None) -> "Polygon":
        if origin is None:
            origin = self.bbox.center
        return Polygon(
            self.shell.scaled(factor, origin), [h.scaled(factor, origin) for h in self.holes]
        )

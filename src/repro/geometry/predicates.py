"""Point-location predicates.

The DE-9IM engine and the rasteriser both reduce to one primitive: given
a point, decide whether it is in the INTERIOR, on the BOUNDARY, or in the
EXTERIOR of a ring or of a polygon with holes. The implementation is the
classic crossing-number walk with an explicit on-boundary test, using the
robust :func:`repro.geometry.segment.orientation` predicate so boundary
hits are detected exactly.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.geometry.segment import orientation, point_on_segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.geometry.polygon import Polygon
    from repro.geometry.ring import Ring

Coord = tuple[float, float]


class Location(enum.Enum):
    """Topological location of a point relative to an areal geometry."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def locate_point_in_ring(point: Coord, ring: "Ring") -> Location:
    """Locate ``point`` relative to the closed region bounded by ``ring``.

    Ring orientation is irrelevant; the region is the bounded side. Runs
    in ``O(n)`` with exact boundary detection.
    """
    x, y = point
    bbox = ring.bbox
    if not bbox.contains_point(x, y):
        return Location.EXTERIOR

    inside = False
    coords = ring.coords
    n = len(coords)
    ax, ay = coords[-1]
    for i in range(n):
        bx, by = coords[i]
        # Boundary test first: exact, and protects the parity walk below.
        if (
            min(ax, bx) <= x <= max(ax, bx)
            and min(ay, by) <= y <= max(ay, by)
            and orientation((ax, ay), (bx, by), (x, y)) == 0
        ):
            return Location.BOUNDARY
        # Half-open vertical rule avoids double-counting shared vertices.
        if (ay > y) != (by > y):
            # Sign of (x_cross - x) * (by - ay), computed without dividing:
            # the ray to +x crosses the edge iff x_cross > x.
            t = (y - ay) * (bx - ax) - (x - ax) * (by - ay)
            if by < ay:
                t = -t
            if t > 0.0:
                inside = not inside
        ax, ay = bx, by
    return Location.INTERIOR if inside else Location.EXTERIOR


def locate_point_in_polygon(point: Coord, polygon: "Polygon") -> Location:
    """Locate ``point`` relative to a polygon with holes.

    A point inside a hole is EXTERIOR; a point on a hole ring is
    BOUNDARY.
    """
    where = locate_point_in_ring(point, polygon.shell)
    if where is not Location.INTERIOR:
        return where
    for hole in polygon.holes:
        inner = locate_point_in_ring(point, hole)
        if inner is Location.BOUNDARY:
            return Location.BOUNDARY
        if inner is Location.INTERIOR:
            return Location.EXTERIOR
    return Location.INTERIOR


__all__ = [
    "Location",
    "locate_point_in_polygon",
    "locate_point_in_ring",
    "point_on_segment",
]

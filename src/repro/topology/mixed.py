"""Mixed-dimension DE-9IM: points and lines against anything.

The areal pipeline (Sec. 3) covers polygon-polygon pairs; DE-9IM
itself is defined for 0-, 1- and 2-dimensional shapes, and the paper's
application domains relate them freely (stations in districts, rivers
against parks). This module computes boolean DE-9IM matrices for every
mix of :class:`Point`-like tuples, :class:`LineString` and areal
geometries (Polygon / MultiPolygon), reusing the edge-array primitives of
:mod:`repro.topology.kernel` (a linestring is an edge array without a
closing edge).

Topology conventions (OGC, simplified to *simple* linestrings):

- a point's interior is itself; its boundary is empty;
- a linestring's boundary is its two endpoints (empty when closed);
  its interior is the rest of the curve;
- areal geometries are as in :mod:`repro.topology.relate`.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.columns import GeometryColumns
from repro.geometry.linestring import LineString
from repro.geometry.multipolygon import MultiPolygon
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import Location
from repro.topology.de9im import DE9IM
from repro.topology.kernel import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    OVERLAP,
    Contacts,
    EdgeArrays,
    edge_contacts,
    free_midpoints,
    locate_many,
)
from repro.topology.relate import relate_details

Coord = tuple[float, float]
Areal = (Polygon, MultiPolygon)


def relate_mixed(a, b) -> DE9IM:
    """Boolean DE-9IM matrix for any mix of point/line/areal geometries.

    Points may be given as plain ``(x, y)`` tuples. Linestrings must be
    simple (non-self-intersecting).
    """
    kind_a = _kind(a)
    kind_b = _kind(b)
    if kind_a == "point" and kind_b == "point":
        return _point_point(_as_coord(a), _as_coord(b))
    if kind_a == "point" and kind_b == "line":
        return _point_line(_as_coord(a), b)
    if kind_a == "line" and kind_b == "point":
        return _point_line(_as_coord(b), a).transposed()
    if kind_a == "point" and kind_b == "area":
        return _point_area(_as_coord(a), b)
    if kind_a == "area" and kind_b == "point":
        return _point_area(_as_coord(b), a).transposed()
    if kind_a == "line" and kind_b == "line":
        return _line_line(a, b)
    if kind_a == "line" and kind_b == "area":
        return _line_area(a, b)
    if kind_a == "area" and kind_b == "line":
        return _line_area(b, a).transposed()
    return relate_details(a, b).matrix


def _kind(geometry) -> str:
    if isinstance(geometry, Areal):
        return "area"
    if isinstance(geometry, LineString):
        return "line"
    if isinstance(geometry, tuple) and len(geometry) == 2:
        return "point"
    raise TypeError(f"unsupported geometry for relate_mixed: {type(geometry).__name__}")


def _as_coord(geometry) -> Coord:
    return (float(geometry[0]), float(geometry[1]))


# ----------------------------------------------------------------------
# point cases
# ----------------------------------------------------------------------
def _point_point(p: Coord, q: Coord) -> DE9IM:
    same = p == q
    return DE9IM.from_cells(
        same, False, not same,
        False, False, False,
        not same, False, True,
    )


def _point_line(p: Coord, line: LineString) -> DE9IM:
    on_interior = line.point_on_interior(p)
    on_boundary = p in line.endpoints
    off = not on_interior and not on_boundary
    has_boundary = bool(line.endpoints)
    return DE9IM.from_cells(
        on_interior, on_boundary, off,
        False, False, False,
        True,  # a line's interior always has points besides p
        # A non-closed line has two *distinct* endpoints, so at least
        # one of them differs from p; a closed line has no boundary.
        has_boundary,
        True,
    )


def _point_area(p: Coord, area) -> DE9IM:
    where = area.locate(p)
    return DE9IM.from_cells(
        where is Location.INTERIOR, where is Location.BOUNDARY, where is Location.EXTERIOR,
        False, False, False,
        True, True, True,
    )


# ----------------------------------------------------------------------
# line cases
# ----------------------------------------------------------------------
def _line_area(line: LineString, area) -> DE9IM:
    columns = GeometryColumns.from_geometries([area])
    line_edges = EdgeArrays.of_line(line.coords)
    area_edges = EdgeArrays.of_geometries(columns, np.zeros(1, dtype=np.int64))
    contacts = edge_contacts(line_edges, area_edges)

    def locate(xs, ys):
        return locate_many(columns, np.zeros(len(xs), dtype=np.int64), xs, ys)

    # Classify the line's non-ON sub-edge midpoints against the area.
    _, mx, my = free_midpoints(line_edges, contacts, "r")
    mid_locs = locate(mx, my)
    ii = bool((mid_locs == INTERIOR).any())
    ie = bool((mid_locs == EXTERIOR).any())

    # Interior-of-line contact with the area's boundary: a collinear
    # overlap piece, or a recorded contact point that is not a line
    # endpoint. Contact points lie on the line *by construction* (they
    # were recorded as cuts of its edges), so only the endpoint test is
    # needed — an exact geometric re-check would reject float-computed
    # crossing coordinates.
    endpoints = set(line.endpoints)
    contact_points = _points(contacts, "r")
    ib = bool((contacts.kind == OVERLAP).any()) or any(
        p not in endpoints for p in contact_points
    )

    # Line boundary (endpoints) against the area.
    ends = np.array(sorted(endpoints), dtype=np.float64).reshape(-1, 2)
    end_locs = locate(ends[:, 0], ends[:, 1])
    bi = bool((end_locs == INTERIOR).any())
    bb = bool((end_locs == BOUNDARY).any())
    be = bool((end_locs == EXTERIOR).any())

    # Area side: its interior always has points off the (measure-zero)
    # line; its boundary escapes the line unless entirely covered.
    eb = bool(len(free_midpoints(area_edges, contacts, "s")[0]))
    return DE9IM.from_cells(ii, ib, ie, bi, bb, be, True, eb, True)


def _line_line(r: LineString, s: LineString) -> DE9IM:
    r_edges = EdgeArrays.of_line(r.coords)
    s_edges = EdgeArrays.of_line(s.coords)
    contacts = edge_contacts(r_edges, s_edges)
    r_ends = set(r.endpoints)
    s_ends = set(s.endpoints)
    contact_points = _points(contacts, "r") | _points(contacts, "s")

    # Contact points lie on both lines by construction (only mutual
    # intersections are recorded), so interior-vs-boundary is purely
    # an endpoint-membership question — exact re-checks would reject
    # float-computed crossing coordinates.
    # Shared 1-D pieces are interior-interior except at their very tips.
    ii = bool((contacts.kind == OVERLAP).any()) or any(
        p not in r_ends and p not in s_ends for p in contact_points
    )
    ib = any(p not in r_ends and p in s_ends for p in contact_points)
    bi = any(p in r_ends and p not in s_ends for p in contact_points)
    bb = bool(r_ends & s_ends) or any(
        p in r_ends and p in s_ends for p in contact_points
    )

    # Non-ON sub-edges witness interior points off the other line.
    ie = bool(len(free_midpoints(r_edges, contacts, "r")[0]))
    ei = bool(len(free_midpoints(s_edges, contacts, "s")[0]))

    be = any(not s.covers_point(p) for p in r_ends)
    eb = any(not r.covers_point(p) for p in s_ends)
    return DE9IM.from_cells(ii, ib, ie, bi, bb, be, ei, eb, True)


def _points(contacts: Contacts, side: str) -> set[Coord]:
    """The cut points of one side's edges, as coordinate tuples."""
    _, xs, ys = contacts.cuts(side)
    return set(zip(xs.tolist(), ys.tolist()))


def intersects_mixed(a, b) -> bool:
    """Convenience: do the two geometries share any point?"""
    matrix = relate_mixed(a, b)
    return matrix.II or matrix.IB or matrix.BI or matrix.BB


__all__ = ["intersects_mixed", "relate_mixed"]

"""An exact DE-9IM oracle: ``Fraction`` brute force, for small inputs.

Independent of both float refinements (the batched kernel and its
scalar predecessor, ``tests/oracles/relate.py``): every coordinate is a
``Fraction``, every edge of one geometry is intersected with every edge
of the other, intersection points, sub-edge midpoints and point
locations are exact, and nothing is clipped, deduplicated by tolerance
or dropped as too short. Interior witnesses are exact too: the midpoint
of the widest interior span of a horizontal line halfway between two
vertex ys of each part. Cost is ``O(n·m)`` rational operations — meant
for polygons of tens of vertices.

The matrix is assembled by the argument of the
:mod:`repro.topology.kernel` docstring, which holds exactly in rational
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from repro.geometry.multipolygon import MultiPolygon
from repro.topology.de9im import DE9IM
from repro.topology.kernel import RelateDetails

Point = tuple[Fraction, Fraction]

EXTERIOR, BOUNDARY, INTERIOR = "E", "B", "I"


def _parts(geometry) -> list[list[list[Point]]]:
    """Per part, its rings (shell first) as exact vertex lists."""
    parts = geometry.parts if isinstance(geometry, MultiPolygon) else (geometry,)
    return [
        [[(Fraction(x), Fraction(y)) for x, y in ring.coords] for ring in part.rings()]
        for part in parts
    ]


def _edges(parts) -> list[tuple[Point, Point]]:
    return [
        (ring[k], ring[(k + 1) % len(ring)])
        for rings in parts for ring in rings for k in range(len(ring))
    ]


def _orient(p: Point, q: Point, r: Point) -> int:
    det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (det > 0) - (det < 0)


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    return (
        _orient(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _meet(a: Point, b: Point, c: Point, d: Point):
    """Closed segments ``ab`` and ``cd``: ``None``, a shared point, or a
    shared collinear piece ``(p, q)`` of positive length."""
    o1, o2, o3, o4 = _orient(a, b, c), _orient(a, b, d), _orient(c, d, a), _orient(c, d, b)
    if o1 == o2 == o3 == o4 == 0:
        axis = 0 if a[0] != b[0] or c[0] != d[0] else 1
        lo = max(min(a, b, key=lambda p: p[axis]), min(c, d, key=lambda p: p[axis]),
                 key=lambda p: p[axis])
        hi = min(max(a, b, key=lambda p: p[axis]), max(c, d, key=lambda p: p[axis]),
                 key=lambda p: p[axis])
        if lo[axis] > hi[axis]:
            return None
        return lo if lo == hi else (lo, hi)
    if o1 * o2 <= 0 and o3 * o4 <= 0:
        for p, s, t in ((c, a, b), (d, a, b), (a, c, d), (b, c, d)):
            if _on_segment(p, s, t):
                return p
        dx1, dy1 = b[0] - a[0], b[1] - a[1]
        dx2, dy2 = d[0] - c[0], d[1] - c[1]
        t = ((c[0] - a[0]) * dy2 - (c[1] - a[1]) * dx2) / (dx1 * dy2 - dy1 * dx2)
        return (a[0] + t * dx1, a[1] + t * dy1)
    return None


def _locate_ring(p: Point, ring: list[Point]) -> str:
    inside = False
    for k in range(len(ring)):
        a, b = ring[k - 1], ring[k]
        if _on_segment(p, a, b):
            return BOUNDARY
        if (a[1] > p[1]) != (b[1] > p[1]):
            t = (p[1] - a[1]) * (b[0] - a[0]) - (p[0] - a[0]) * (b[1] - a[1])
            if b[1] < a[1]:
                t = -t
            if t > 0:
                inside = not inside
    return INTERIOR if inside else EXTERIOR


def locate(p: Point, parts) -> str:
    """Exact location of ``p`` against the union of ``parts``."""
    on_boundary = False
    for rings in parts:
        where = _locate_ring(p, rings[0])
        if where == INTERIOR:
            for hole in rings[1:]:
                inner = _locate_ring(p, hole)
                if inner != EXTERIOR:
                    where = BOUNDARY if inner == BOUNDARY else EXTERIOR
                    break
        if where == INTERIOR:
            return INTERIOR
        on_boundary |= where == BOUNDARY
    return BOUNDARY if on_boundary else EXTERIOR


def _witness(rings) -> Point:
    """An exact point of the part's open interior."""
    ys = sorted({y for ring in rings for _, y in ring})
    for y0, y1 in zip(ys, ys[1:]):
        y = (y0 + y1) / 2
        xs = sorted(
            a[0] + (y - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            for a, b in _edges([rings]) if (a[1] > y) != (b[1] > y)
        )
        spans = sorted(
            ((x1 - x0, (x0 + x1) / 2) for x0, x1 in zip(xs, xs[1:])), reverse=True
        )
        for _, x in spans:
            if locate((x, y), [rings]) == INTERIOR:
                return (x, y)
    raise ValueError("part has no interior")


def _sides(edges, other_edges, other_parts):
    """Locations of this boundary's sub-edge midpoints against the other
    geometry (ON pieces excluded), and whether any contact or collinear
    overlap exists."""
    seen: set[str] = set()
    contact = overlap = False
    for a, b in edges:
        cuts = {Fraction(0), Fraction(1)}
        on: list[tuple[Fraction, Fraction]] = []
        axis = 0 if a[0] != b[0] else 1

        def param(p):
            return (p[axis] - a[axis]) / (b[axis] - a[axis])

        for c, d in other_edges:
            met = _meet(a, b, c, d)
            if met is None:
                continue
            contact = True
            if isinstance(met[0], tuple):
                overlap = True
                t0, t1 = sorted((param(met[0]), param(met[1])))
                cuts |= {t0, t1}
                on.append((t0, t1))
            else:
                cuts.add(param(met))
        ordered = sorted(t for t in cuts if 0 <= t <= 1)
        for t0, t1 in zip(ordered, ordered[1:]):
            tm = (t0 + t1) / 2
            if any(lo <= tm <= hi for lo, hi in on):
                continue
            point = (a[0] + tm * (b[0] - a[0]), a[1] + tm * (b[1] - a[1]))
            seen.add(locate(point, other_parts))
    return seen, contact, overlap


def relate_exact(r, s) -> RelateDetails:
    """The exact :class:`RelateDetails` of polygons or multipolygons."""
    r_parts, s_parts = _parts(r), _parts(s)
    r_edges, s_edges = _edges(r_parts), _edges(s_parts)
    r_seen, contact, overlap = _sides(r_edges, s_edges, s_parts)
    s_seen, _, _ = _sides(s_edges, r_edges, r_parts)
    if BOUNDARY in r_seen | s_seen:
        raise AssertionError("a sub-edge midpoint lies on the other boundary")
    bi, be = INTERIOR in r_seen, EXTERIOR in r_seen
    ib, eb = INTERIOR in s_seen, EXTERIOR in s_seen
    rs = {locate(_witness(rings), s_parts) for rings in r_parts}
    sr = {locate(_witness(rings), r_parts) for rings in s_parts}
    ii = bi or ib or rs != {EXTERIOR} or sr != {EXTERIOR}
    ie = be or ib or rs != {INTERIOR}
    ei = eb or bi or sr != {INTERIOR}
    matrix = DE9IM.from_cells(ii, ib, ie, bi, contact, be, ei, eb, True)
    return RelateDetails(matrix, overlap)


__all__ = ["relate_exact", "locate"]

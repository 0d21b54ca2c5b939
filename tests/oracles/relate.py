"""The per-pair scalar DE-9IM refinement.

Until the batched kernel (:func:`repro.topology.kernel.relate_many`)
this was the body of :func:`repro.topology.relate.relate_details`: a
heap plane sweep over the two boundaries (``boundary_intersections``,
once ``repro/topology/sweep.py``), one Python loop per edge to cut the
boundaries into sub-edges (``_subedge_midpoints``), the dense
points-by-edges even-odd test with a scalar path below four points
(``points_strictly_inside``, once the body of
``repro.topology.pip.points_strictly_inside``) and the scalar
representative-point ``locate``. The kernel must return exactly its
:class:`~repro.topology.relate.RelateDetails`
(``tests/test_relate_differential.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.geometry.columns import GeometryColumns
from repro.geometry.predicates import Location
from repro.geometry.segment import SegmentIntersectionKind, segment_intersection
from repro.topology.de9im import DE9IM
from repro.topology.kernel import _MIN_SPAN, DISJOINT_MATRIX, RelateDetails

if TYPE_CHECKING:  # pragma: no cover
    from repro.geometry.polygon import Polygon

Coord = tuple[float, float]


# ----------------------------------------------------------------------
# the boundary/boundary plane sweep (was repro/topology/sweep.py)
# ----------------------------------------------------------------------
@dataclass
class BoundaryIntersections:
    """All boundary/boundary intersections of a polygon pair.

    ``cuts_r[i]`` lists the points at which edge ``i`` of ``r`` (in
    :meth:`Polygon.edges` order) must be subdivided; ``overlaps_r[i]``
    lists collinear-overlap sub-segments of that edge that lie *on* the
    boundary of ``s`` (endpoint pairs, each also present in the cuts).
    ``contact`` is True iff the boundaries share at least one point.
    """

    contact: bool = False
    cuts_r: dict[int, list[Coord]] = field(default_factory=dict)
    cuts_s: dict[int, list[Coord]] = field(default_factory=dict)
    overlaps_r: dict[int, list[tuple[Coord, Coord]]] = field(default_factory=dict)
    overlaps_s: dict[int, list[tuple[Coord, Coord]]] = field(default_factory=dict)

    def _record_cut(self, side: str, index: int, point: Coord) -> None:
        cuts = self.cuts_r if side == "r" else self.cuts_s
        cuts.setdefault(index, []).append(point)

    def _record_overlap(self, side: str, index: int, lo: Coord, hi: Coord) -> None:
        overlaps = self.overlaps_r if side == "r" else self.overlaps_s
        overlaps.setdefault(index, []).append((lo, hi))


def boundary_intersections(r: "Polygon", s: "Polygon") -> BoundaryIntersections:
    """Compute all intersections between ``boundary(r)`` and ``boundary(s)``."""
    result = BoundaryIntersections()

    # Only edges inside the MBR overlap region can meet the other boundary.
    clip = r.bbox.intersection(s.bbox)
    if clip is None:
        return result
    cxmin, cymin, cxmax, cymax = clip.xmin, clip.ymin, clip.xmax, clip.ymax

    # (xmin, xmax, ymin, ymax, side, index, a, b) sorted by xmin.
    items: list[tuple[float, float, float, float, str, int, Coord, Coord]] = []
    for side, poly in (("r", r), ("s", s)):
        for index, (a, b) in enumerate(poly.edges()):
            xmin, xmax = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
            if xmax < cxmin or xmin > cxmax:
                continue
            ymin, ymax = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
            if ymax < cymin or ymin > cymax:
                continue
            items.append((xmin, xmax, ymin, ymax, side, index, a, b))
    items.sort(key=lambda t: t[0])

    # Min-heaps on xmax; iteration below visits every live entry (heap
    # order is irrelevant — all surviving edges must be tested anyway).
    active_r: list[tuple[float, float, float, int, Coord, Coord]] = []
    active_s: list[tuple[float, float, float, int, Coord, Coord]] = []
    for xmin, xmax, ymin, ymax, side, index, a, b in items:
        mine, theirs = (active_r, active_s) if side == "r" else (active_s, active_r)
        # Lazily pop opposite-side edges the sweep line has passed.
        while theirs and theirs[0][0] < xmin:
            heapq.heappop(theirs)
        for _, oymin, oymax, oindex, oa, ob in theirs:
            if oymax < ymin or oymin > ymax:
                continue
            if side == "r":
                _process_pair(result, index, a, b, oindex, oa, ob)
            else:
                _process_pair(result, oindex, oa, ob, index, a, b)
        heapq.heappush(mine, (xmax, ymin, ymax, index, a, b))
    return result


def _process_pair(
    result: BoundaryIntersections,
    ri: int,
    ra: Coord,
    rb: Coord,
    si: int,
    sa: Coord,
    sb: Coord,
) -> None:
    inter = segment_intersection(ra, rb, sa, sb)
    if inter.kind is SegmentIntersectionKind.NONE:
        return
    result.contact = True
    if inter.kind is SegmentIntersectionKind.OVERLAP:
        lo, hi = inter.points
        result._record_cut("r", ri, lo)
        result._record_cut("r", ri, hi)
        result._record_cut("s", si, lo)
        result._record_cut("s", si, hi)
        result._record_overlap("r", ri, lo, hi)
        result._record_overlap("s", si, lo, hi)
    else:
        point = inter.points[0]
        result._record_cut("r", ri, point)
        result._record_cut("s", si, point)


# ----------------------------------------------------------------------
# the dense even-odd test (was repro.topology.pip.points_strictly_inside)
# ----------------------------------------------------------------------
#: Below this many query points the scalar loop beats numpy dispatch.
_SCALAR_CUTOFF = 4

#: Cap on the (points x edges) matrix size per vectorised chunk (~24 MB).
_CHUNK_BUDGET = 3_000_000


def points_strictly_inside(points: Sequence[Coord], polygon: "Polygon") -> np.ndarray:
    """Even-odd interior test for every point in ``points``."""
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n < _SCALAR_CUTOFF:
        return np.array([polygon.locate(p) is Location.INTERIOR for p in points])

    ax, ay, bx, by = GeometryColumns.from_geometries([polygon]).edge_arrays()[:4]
    pts = np.asarray(points, dtype=float)
    px = pts[:, 0]
    py = pts[:, 1]

    n_edges = len(ax)
    out = np.zeros(n, dtype=bool)
    chunk = max(1, _CHUNK_BUDGET // max(1, n_edges))
    for start in range(0, n, chunk):
        end = min(n, start + chunk)
        cx = px[start:end, None]
        cy = py[start:end, None]
        straddles = (ay[None, :] > cy) != (by[None, :] > cy)
        # Sign of (x_cross - x) * (by - ay) without dividing.
        t = (cy - ay[None, :]) * (bx - ax)[None, :] - (cx - ax[None, :]) * (by - ay)[None, :]
        t = np.where((by - ay)[None, :] < 0, -t, t)
        crossings = np.count_nonzero(straddles & (t > 0.0), axis=1)
        out[start:end] = (crossings & 1).astype(bool)
    return out


# ----------------------------------------------------------------------
# the per-pair refinement (was repro.topology.relate.relate_details)
# ----------------------------------------------------------------------
def relate_details(r: "Polygon", s: "Polygon") -> RelateDetails:
    """Boolean DE-9IM matrix plus boundary-overlap dimensionality."""
    if r.bbox.disjoint(s.bbox):
        return RelateDetails(DISJOINT_MATRIX, False)

    inter = boundary_intersections(r, s)

    r_mids = _subedge_midpoints(r, inter.cuts_r, inter.overlaps_r)
    s_mids = _subedge_midpoints(s, inter.cuts_s, inter.overlaps_s)

    rb_si, rb_se = _classify_midpoints(r_mids, s)
    sb_ri, sb_re = _classify_midpoints(s_mids, r)

    bb = inter.contact
    bi = rb_si
    ib = sb_ri
    be = rb_se
    eb = sb_re

    locs_rs: list[Location] | None = None
    locs_sr: list[Location] | None = None

    ii = bi or ib
    if not ii:
        locs_rs = [s.locate(p) for p in r.representative_points()]
        locs_sr = [r.locate(p) for p in s.representative_points()]
        ii = any(loc is not Location.EXTERIOR for loc in locs_rs) or any(
            loc is not Location.EXTERIOR for loc in locs_sr
        )

    ie = be or ib
    if not ie:
        if locs_rs is None:
            locs_rs = [s.locate(p) for p in r.representative_points()]
        ie = any(loc is not Location.INTERIOR for loc in locs_rs)
    ei = eb or bi
    if not ei:
        if locs_sr is None:
            locs_sr = [r.locate(p) for p in s.representative_points()]
        ei = any(loc is not Location.INTERIOR for loc in locs_sr)

    matrix = DE9IM.from_cells(ii, ib, ie, bi, bb, be, ei, eb, True)
    boundary_overlap = bool(inter.overlaps_r) or bool(inter.overlaps_s)
    return RelateDetails(matrix, boundary_overlap)


def _subedge_midpoints(
    polygon: "Polygon",
    cuts: dict[int, list[Coord]],
    overlaps: dict[int, list[tuple[Coord, Coord]]],
) -> list[Coord]:
    """Midpoints of all non-ON sub-edges of ``polygon``'s boundary."""
    midpoints: list[Coord] = []
    for index, (a, b) in enumerate(polygon.edges()):
        edge_cuts = cuts.get(index)
        if not edge_cuts:
            midpoints.append(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
            continue

        dx = b[0] - a[0]
        dy = b[1] - a[1]
        norm = dx * dx + dy * dy
        if norm == 0.0:
            continue  # degenerate edge contributes nothing

        def param(p: Coord) -> float:
            return ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / norm

        ts = {0.0, 1.0}
        for p in edge_cuts:
            t = param(p)
            if 0.0 < t < 1.0:
                ts.add(t)
        ordered = sorted(ts)

        on_intervals = [
            (param(lo), param(hi)) for lo, hi in overlaps.get(index, ())
        ]
        on_intervals = [(min(t0, t1), max(t0, t1)) for t0, t1 in on_intervals]

        for t0, t1 in zip(ordered, ordered[1:]):
            if t1 - t0 <= _MIN_SPAN:
                continue
            tm = (t0 + t1) / 2.0
            if any(lo <= tm <= hi for lo, hi in on_intervals):
                continue  # ON sub-edge: lies on the other boundary
            midpoints.append((a[0] + tm * dx, a[1] + tm * dy))
    return midpoints


def _classify_midpoints(midpoints: list[Coord], other: "Polygon") -> tuple[bool, bool]:
    """Return ``(any interior to other, any exterior to other)``."""
    if not midpoints:
        return False, False
    bbox = other.bbox
    candidates = [p for p in midpoints if bbox.contains_point(p[0], p[1])]
    any_exterior = len(candidates) < len(midpoints)
    if not candidates:
        return False, any_exterior
    inside = points_strictly_inside(candidates, other)
    any_interior = bool(inside.any())
    any_exterior = any_exterior or not bool(inside.all())
    return any_interior, any_exterior

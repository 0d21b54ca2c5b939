"""The per-pair Fig. 6 handlers.

Until the batched decision trees (:mod:`repro.filters.relate_filters`)
these were the body of ``relate_filter``: one Python function per
predicate, run once per candidate pair, each reading the boxes and the
APRIL lists through :class:`~repro.raster.intervals.IntervalList`'s
merge-joins. ``relate_filter`` here dispatches to them exactly as the
product did; ``tests/test_relate_trees.py`` proves every tree equal to
its handler over every bit assignment, and checks the two on the
candidate pairs of generated inputs.
"""

from __future__ import annotations

from repro.filters.mbr import MBRRelationship, classify_mbr_pair
from repro.filters.relate_filters import RelateVerdict
from repro.geometry.box import Box
from repro.raster.april import AprilApproximation
from repro.topology.de9im import TopologicalRelation as T
from tests.oracles.find_filters import check_compatible


def relate_filter(
    predicate: T,
    r_box: Box,
    s_box: Box,
    r: AprilApproximation,
    s: AprilApproximation,
    connected: bool = True,
) -> RelateVerdict:
    """Filter verdict for ``relate_p(r, s)``; UNKNOWN means refine.

    All eight predicates are supported. MBR-impossibility checks come
    first (Fig. 6's *impossible relation* arrow), then the Fig. 6
    merge-join sequences. Pass ``connected=False`` when either shape
    may be a multipolygon: the CROSS-MBR and equal-MBR shortcuts (which
    assume connected shapes) are then skipped; everything else is
    connectivity-free.
    """
    handler = _HANDLERS[predicate]
    return handler(r_box, s_box, r, s, connected)


def _relate_equals(r_box: Box, s_box: Box, r: AprilApproximation, s: AprilApproximation, connected: bool = True) -> RelateVerdict:
    if r_box != s_box:
        return RelateVerdict.NO  # equal shapes have equal MBRs
    check_compatible(r, s)
    if not r.c.matches(s.c):
        return RelateVerdict.NO  # equal shapes raster identically
    if not r.p.matches(s.p):
        return RelateVerdict.NO
    return RelateVerdict.UNKNOWN  # identical rasters cannot *prove* equality


def _relate_inside(r_box: Box, s_box: Box, r: AprilApproximation, s: AprilApproximation, connected: bool = True) -> RelateVerdict:
    # Touch-free containment forces the MBR strictly inside (a shape in
    # the open interior cannot reach its container's MBR border).
    if not s_box.strictly_contains_box(r_box):
        return RelateVerdict.NO
    return _containment_core(r, s)


def _relate_covered_by(r_box: Box, s_box: Box, r: AprilApproximation, s: AprilApproximation, connected: bool = True) -> RelateVerdict:
    if not s_box.contains_box(r_box):
        return RelateVerdict.NO
    return _containment_core(r, s)


def _containment_core(r: AprilApproximation, s: AprilApproximation) -> RelateVerdict:
    """Shared Fig. 6 body for inside / covered by: is r ⊆ (int) s?"""
    check_compatible(r, s)
    if not r.c.inside(s.c):
        return RelateVerdict.NO  # r touches cells s does not: r ⊄ s
    if s.p and r.c.inside(s.p):
        return RelateVerdict.YES  # r ⊆ int(s): inside, hence also covered by
    return RelateVerdict.UNKNOWN


def _relate_contains(r_box: Box, s_box: Box, r: AprilApproximation, s: AprilApproximation, connected: bool = True) -> RelateVerdict:
    return _relate_inside(s_box, r_box, s, r, connected)


def _relate_covers(r_box: Box, s_box: Box, r: AprilApproximation, s: AprilApproximation, connected: bool = True) -> RelateVerdict:
    return _relate_covered_by(s_box, r_box, s, r, connected)


def _relate_meets(r_box: Box, s_box: Box, r: AprilApproximation, s: AprilApproximation, connected: bool = True) -> RelateVerdict:
    case = classify_mbr_pair(r_box, s_box)
    if case is MBRRelationship.DISJOINT:
        return RelateVerdict.NO  # disjoint pairs do not meet
    if case is MBRRelationship.CROSS and connected:
        return RelateVerdict.NO  # crossing MBRs force interior overlap
    check_compatible(r, s)
    if not r.c.overlaps(s.c):
        return RelateVerdict.NO  # no shared cell: disjoint
    if r.c.overlaps(s.p) or r.p.overlaps(s.c):
        return RelateVerdict.NO  # interiors intersect: more than a touch
    return RelateVerdict.UNKNOWN


def _relate_disjoint(r_box: Box, s_box: Box, r: AprilApproximation, s: AprilApproximation, connected: bool = True) -> RelateVerdict:
    case = classify_mbr_pair(r_box, s_box)
    if case is MBRRelationship.DISJOINT:
        return RelateVerdict.YES
    if connected and case in (MBRRelationship.CROSS, MBRRelationship.EQUAL):
        # Crossing or identical MBRs force *connected* shapes to intersect.
        return RelateVerdict.NO
    check_compatible(r, s)
    if not r.c.overlaps(s.c):
        return RelateVerdict.YES
    if r.c.overlaps(s.p) or r.p.overlaps(s.c):
        return RelateVerdict.NO
    return RelateVerdict.UNKNOWN


def _relate_intersects(r_box: Box, s_box: Box, r: AprilApproximation, s: AprilApproximation, connected: bool = True) -> RelateVerdict:
    inverse = _relate_disjoint(r_box, s_box, r, s, connected)
    if inverse is RelateVerdict.YES:
        return RelateVerdict.NO
    if inverse is RelateVerdict.NO:
        return RelateVerdict.YES
    return RelateVerdict.UNKNOWN


_HANDLERS = {
    T.EQUALS: _relate_equals,
    T.INSIDE: _relate_inside,
    T.COVERED_BY: _relate_covered_by,
    T.CONTAINS: _relate_contains,
    T.COVERS: _relate_covers,
    T.MEETS: _relate_meets,
    T.DISJOINT: _relate_disjoint,
    T.INTERSECTS: _relate_intersects,
}

__all__ = ["relate_filter"]

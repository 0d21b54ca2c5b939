"""The per-pair Fig. 5 flows and the four methods' per-pair filters.

Until the find-relation decision trees
(:data:`repro.filters.intermediate.FIND_TREES`) these were the filter
stage of every find-relation join: ``intermediate_filter`` dispatched a
pair to its IFEquals / IFInside / IFContains / IFIntersects flow, each a
few merge-joins of the pair's own APRIL lists through
:class:`~repro.raster.intervals.IntervalList`, and each method's
``filter_pair`` ran the MBR case analysis in front of it, one Python
call per candidate. The bodies are kept as they were;
``tests/test_find_trees.py`` proves every tree equal to its method's
``filter_pair`` over every bit assignment and checks the two on
generated candidate streams.
"""

from __future__ import annotations

from repro.filters.intermediate import IFResult, Stage
from repro.filters.mbr import MBRRelationship, classify_mbr_pair, mbr_candidates_for
from repro.join.objects import SpatialObject
from repro.raster.april import AprilApproximation
from repro.topology.de9im import SPECIFIC_TO_GENERAL, TopologicalRelation as T


def check_compatible(r: AprilApproximation, s: AprilApproximation) -> None:
    """Refuse to compare lists built on different grids, as
    ``AprilApproximation.check_compatible`` did; the product checks a
    whole stream's stores once (``PairBits._check_lists``)."""
    if not r.grid.compatible_with(s.grid):
        raise ValueError("APRIL approximations built on different grids cannot be compared")


def _definite(relation: T) -> IFResult:
    return IFResult(definite=relation)


def _refine(*candidates: T) -> IFResult:
    return IFResult(refine_candidates=candidates)


def if_equals(r: AprilApproximation, s: AprilApproximation) -> IFResult:
    """IFEquals — MBRs are equal (Fig. 4c candidates).

    Disjoint is impossible here, so every branch either proves a
    relation or refines a narrowed set.
    """
    check_compatible(r, s)
    if r.c.matches(s.c):
        # Identical conservative rasters: could be equals, or mutual
        # near-coverage; only refinement can tell which is most specific.
        return _refine(T.EQUALS, T.COVERED_BY, T.COVERS, T.INTERSECTS)
    if r.c.inside(s.c):
        # Equality is excluded (equal shapes raster identically).
        if s.p and r.c.inside(s.p):
            # r ⊆ int(s); with equal MBRs this branch is geometrically
            # unreachable, but the paper's flow keeps it (and it stays
            # sound: r ⊆ s and r ≠ s ⟹ covered by).
            return _definite(T.COVERED_BY)
        return _refine(T.COVERED_BY, T.MEETS, T.INTERSECTS)
    if r.c.contains(s.c):
        if r.p and r.p.contains(s.c):
            return _definite(T.COVERS)
        return _refine(T.COVERS, T.MEETS, T.INTERSECTS)
    return _refine(T.MEETS, T.INTERSECTS)


def if_inside(r: AprilApproximation, s: AprilApproximation) -> IFResult:
    """IFInside — MBR(r) inside MBR(s) (Fig. 4a candidates)."""
    check_compatible(r, s)
    if not r.c.overlaps(s.c):
        return _definite(T.DISJOINT)
    if r.c.inside(s.c):
        if s.p:
            if r.c.inside(s.p):
                return _definite(T.INSIDE)
            if r.c.overlaps(s.p):
                # Interiors certainly intersect; disjoint/meets are out.
                # This is Algorithm 1's ``ref_inside`` outcome.
                return _refine(T.INSIDE, T.COVERED_BY, T.INTERSECTS)
        if r.p and r.p.overlaps(s.c):
            # A cell interior to r is touched by s: II = T again.
            return _refine(T.INSIDE, T.COVERED_BY, T.INTERSECTS)
        return _refine(T.DISJOINT, T.INSIDE, T.COVERED_BY, T.MEETS, T.INTERSECTS)
    # r touches cells outside s's conservative set, so r ⊄ s:
    # inside/covered by are impossible.
    if r.c.overlaps(s.p) or r.p.overlaps(s.c):
        # Interiors intersect and containment is excluded, so the most
        # specific relation is already known.
        return _definite(T.INTERSECTS)
    return _refine(T.DISJOINT, T.MEETS, T.INTERSECTS)


def if_contains(r: AprilApproximation, s: AprilApproximation) -> IFResult:
    """IFContains — MBR(r) contains MBR(s): the mirror of IFInside."""
    mirrored = if_inside(s, r)
    if mirrored.definite is not None:
        return _definite(mirrored.definite.inverse)
    assert mirrored.refine_candidates is not None
    return _refine(*(c.inverse for c in mirrored.refine_candidates))


def if_intersects(r: AprilApproximation, s: AprilApproximation) -> IFResult:
    """IFIntersects — general MBR overlap (Fig. 4e candidates)."""
    check_compatible(r, s)
    if not r.c.overlaps(s.c):
        return _definite(T.DISJOINT)
    if r.c.overlaps(s.p) or r.p.overlaps(s.c):
        return _definite(T.INTERSECTS)
    return _refine(T.DISJOINT, T.MEETS, T.INTERSECTS)


def if_equals_disconnected(r: AprilApproximation, s: AprilApproximation) -> IFResult:
    """Equal-MBR filter for pairs where a shape may be disconnected.

    The Fig. 4(c) exclusions of *disjoint* (and the spanning argument
    behind them) assume connected shapes: two multipolygons can share
    an MBR while interleaving without touching. This variant keeps
    disjoint/meets among the candidates unless interior intersection is
    proven from the P lists. Containment *of the MBR-equal kind* is
    still impossible for *inside/contains* (openness argument, no
    connectivity needed), so those stay excluded.
    """
    check_compatible(r, s)
    if not r.c.overlaps(s.c):
        return _definite(T.DISJOINT)
    interiors_meet = r.c.overlaps(s.p) or r.p.overlaps(s.c)

    if r.c.matches(s.c):
        candidates = [T.EQUALS, T.COVERED_BY, T.COVERS, T.MEETS, T.INTERSECTS, T.DISJOINT]
    elif r.c.inside(s.c):
        candidates = [T.COVERED_BY, T.MEETS, T.INTERSECTS, T.DISJOINT]
    elif r.c.contains(s.c):
        candidates = [T.COVERS, T.MEETS, T.INTERSECTS, T.DISJOINT]
    else:
        candidates = [T.MEETS, T.INTERSECTS, T.DISJOINT]
    if interiors_meet:
        candidates = [c for c in candidates if c not in (T.MEETS, T.DISJOINT)]
        if candidates == [T.INTERSECTS]:
            return _definite(T.INTERSECTS)
    return _refine(*candidates)


def intermediate_filter(
    mbr_case: MBRRelationship,
    r: AprilApproximation,
    s: AprilApproximation,
    connected: bool = True,
) -> IFResult:
    """Dispatch a candidate pair to its case-specific intermediate filter.

    Implements the body of Algorithm 1 from the MBR case down to either
    a definite relation or a refinement candidate set. ``DISJOINT`` and
    ``CROSS`` MBR cases resolve without touching the interval lists —
    *for connected shapes*. Pass ``connected=False`` when either input
    may be a multipolygon: the CROSS shortcut and the equal-MBR
    disjointness exclusion are then replaced by connectivity-safe
    variants (IFInside/IFContains/IFIntersects are connectivity-free
    and used unchanged).
    """
    if mbr_case is MBRRelationship.DISJOINT:
        return _definite(T.DISJOINT)
    if mbr_case is MBRRelationship.CROSS:
        if connected:
            return _definite(T.INTERSECTS)
        return if_intersects(r, s)
    if mbr_case is MBRRelationship.EQUAL:
        return if_equals(r, s) if connected else if_equals_disconnected(r, s)
    if mbr_case is MBRRelationship.R_INSIDE_S:
        return if_inside(r, s)
    if mbr_case is MBRRelationship.R_CONTAINS_S:
        return if_contains(r, s)
    return if_intersects(r, s)


class Pipeline:
    """A method's per-pair filter stage."""

    name: str = "?"
    uses_april: bool = False

    def filter_pair(self, r: SpatialObject, s: SpatialObject) -> tuple[IFResult, Stage]:
        raise NotImplementedError

    def filter_pairs(self, r_objects, s_objects, pairs) -> list[tuple[IFResult, Stage]]:
        """The map of :meth:`filter_pair` over ``pairs``."""
        return [self.filter_pair(r_objects[i], s_objects[j]) for i, j in pairs]


class StandardTwoPhasePipeline(Pipeline):
    """ST2: plain MBR test, then refinement against all masks [25, 31]."""

    name = "ST2"

    def filter_pair(self, r: SpatialObject, s: SpatialObject) -> tuple[IFResult, Stage]:
        if r.box.disjoint(s.box):
            return IFResult(definite=T.DISJOINT), Stage.MBR
        return IFResult(refine_candidates=tuple(SPECIFIC_TO_GENERAL)), Stage.MBR


def _mbr_shortcut(case: MBRRelationship, connected: bool) -> tuple[IFResult, Stage] | None:
    """The verdict of the two MBR cases that decide a pair outright
    (Sec. 3.1), else None."""
    if case is MBRRelationship.DISJOINT:
        return IFResult(definite=T.DISJOINT), Stage.MBR
    if case is MBRRelationship.CROSS and connected:
        return IFResult(definite=T.INTERSECTS), Stage.MBR
    return None


class OptimizedTwoPhasePipeline(Pipeline):
    """OP2: the Sec. 3.1 MBR case analysis narrows the mask set."""

    name = "OP2"

    def filter_pair(self, r: SpatialObject, s: SpatialObject) -> tuple[IFResult, Stage]:
        case = classify_mbr_pair(r.box, s.box)
        connected = r.is_connected and s.is_connected
        decided = _mbr_shortcut(case, connected)
        if decided is not None:
            return decided
        return IFResult(refine_candidates=mbr_candidates_for(case, connected)), Stage.MBR


class AprilIntersectionPipeline(Pipeline):
    """APRIL [14]: intermediate filter for intersection detection only."""

    name = "APRIL"
    uses_april = True

    def filter_pair(self, r: SpatialObject, s: SpatialObject) -> tuple[IFResult, Stage]:
        case = classify_mbr_pair(r.box, s.box)
        connected = r.is_connected and s.is_connected
        decided = _mbr_shortcut(case, connected)
        if decided is not None:
            return decided
        ra = r.require_april()
        sa = s.require_april()
        check_compatible(ra, sa)
        if not ra.c.overlaps(sa.c):
            return IFResult(definite=T.DISJOINT), Stage.INTERMEDIATE
        candidates = mbr_candidates_for(case, connected)
        if ra.c.overlaps(sa.p) or ra.p.overlaps(sa.c):
            # Interiors provably intersect: disjoint and meets masks are
            # dead, but the most specific relation is still unknown.
            candidates = tuple(c for c in candidates if c not in (T.DISJOINT, T.MEETS))
        return IFResult(refine_candidates=candidates), Stage.INTERMEDIATE


class ProgressiveConservativePipeline(Pipeline):
    """P+C: the paper's Algorithm 1 with the Fig. 5 intermediate filters."""

    name = "P+C"
    uses_april = True

    def filter_pair(self, r: SpatialObject, s: SpatialObject) -> tuple[IFResult, Stage]:
        case = classify_mbr_pair(r.box, s.box)
        connected = r.is_connected and s.is_connected
        decided = _mbr_shortcut(case, connected)
        if decided is not None:
            return decided
        return (
            intermediate_filter(
                case, r.require_april(), s.require_april(), connected
            ),
            Stage.INTERMEDIATE,
        )


#: The four evaluated methods, keyed by their paper names.
PIPELINES: dict[str, Pipeline] = {
    p.name: p
    for p in (
        StandardTwoPhasePipeline(),
        OptimizedTwoPhasePipeline(),
        AprilIntersectionPipeline(),
        ProgressiveConservativePipeline(),
    )
}

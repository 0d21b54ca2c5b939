"""The intermediate filters of Sec. 3.2 / Fig. 5.

Each filter receives the APRIL approximations of a candidate pair whose
MBRs intersect in a particular way, runs a short sequence of linear
merge-joins over the ``P``/``C`` interval lists, and returns an
:class:`IFResult` — either a *definite* most-specific relation (no
refinement needed) or the narrowed candidate set to refine against.

Soundness rests on the rasterisation invariants
(:mod:`repro.raster.april`): a ``C`` list covers every cell its object
touches (within the object's MBR cell range), and every ``P`` cell's
closed extent lies strictly in its object's *interior*. The key
implications, written ``⊑`` for interval-list inside:

- ``¬overlap(rC, sC)`` ⟹ r and s share no cell ⟹ **disjoint**;
- ``overlap(rC, sP)`` ⟹ some point of r lies in a cell contained in
  ``int(s)`` ⟹ interiors intersect (``II = T``);
- ``rC ⊑ sP`` ⟹ every point of r lies in ``int(s)`` ⟹ **inside**
  (the strict-interior ``P`` semantics is what upgrades the paper's
  "covered by or inside" to the touch-free *inside* of Fig. 1(a));
- ``rC ̸⊑ sC`` (with MBR(r) ⊆ MBR(s), so r's cell range ⊆ s's)
  ⟹ r touches a cell s does not ⟹ r ⊄ s, killing inside/covered by;
- identical rasterisations are necessary for equality, so a failed
  ``match`` kills *equals*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.filters.mbr import MBRRelationship
from repro.raster.april import AprilApproximation
from repro.topology.de9im import TopologicalRelation as T


@dataclass(frozen=True, slots=True)
class IFResult:
    """Outcome of an intermediate filter.

    Exactly one of ``definite`` / ``refine_candidates`` is set. When
    ``definite`` is set the pair's most specific relation is proven and
    the DE-9IM computation is skipped entirely.
    """

    definite: T | None = None
    refine_candidates: tuple[T, ...] | None = None

    def __post_init__(self) -> None:
        if (self.definite is None) == (self.refine_candidates is None):
            raise ValueError("exactly one of definite/refine_candidates must be set")

    @property
    def needs_refinement(self) -> bool:
        return self.refine_candidates is not None


def _definite(relation: T) -> IFResult:
    return IFResult(definite=relation)


def _refine(*candidates: T) -> IFResult:
    return IFResult(refine_candidates=candidates)


def if_equals(r: AprilApproximation, s: AprilApproximation) -> IFResult:
    """IFEquals — MBRs are equal (Fig. 4c candidates).

    Disjoint is impossible here, so every branch either proves a
    relation or refines a narrowed set.
    """
    r.check_compatible(s)
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
    r.check_compatible(s)
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
    r.check_compatible(s)
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
    r.check_compatible(s)
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


__all__ = [
    "IFResult",
    "if_contains",
    "if_equals",
    "if_equals_disconnected",
    "if_inside",
    "if_intersects",
    "intermediate_filter",
]

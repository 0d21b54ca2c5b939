"""The find-relation filters of Sec. 3.1–3.2 (Fig. 4, Fig. 5, Alg. 1).

Each method's filter stage is a decision tree (:data:`FIND_TREES`) of
:class:`~repro.filters.relate_filters.If` nodes over the bits of
:mod:`repro.filters.pair_bits`: the Fig. 4 MBR case, ``connected``
where the case's flow depends on it, then (P+C's Fig. 5 flows) the
Sec. 3.2 relations of the P/C lists. A :class:`Leaf` is an
:class:`IFResult` — a *definite* most-specific relation or the
candidates to refine — and its :class:`Stage`. The per-pair flows these
trees replaced are ``tests/oracles/find_filters.py``.

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

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.filters.mbr import MBRRelationship as M, mbr_candidates_for
from repro.filters.relate_filters import If, _mirror
from repro.topology.de9im import SPECIFIC_TO_GENERAL, TopologicalRelation as T


class Stage(enum.Enum):
    """Which pipeline stage produced the final relation of a pair."""

    MBR = "mbr"
    INTERMEDIATE = "if"
    REFINEMENT = "refinement"


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


class Leaf(NamedTuple):
    """A leaf of a find-relation tree: the filter's verdict and the
    stage a definite verdict is attributed to."""

    result: IFResult
    stage: Stage


def _definite(relation: T, stage: Stage = Stage.INTERMEDIATE) -> Leaf:
    return Leaf(IFResult(definite=relation), stage)


def _refine(*candidates: T, stage: Stage = Stage.INTERMEDIATE) -> Leaf:
    return Leaf(IFResult(refine_candidates=candidates), stage)


def _inverse(leaf: Leaf) -> Leaf:
    """The leaf seen from the other object: every relation inverted."""
    definite, candidates = leaf.result.definite, leaf.result.refine_candidates
    if definite is not None:
        return _definite(definite.inverse, leaf.stage)
    return _refine(*(c.inverse for c in candidates), stage=leaf.stage)


def _node(bit: str, then, otherwise):
    """``If(bit, then, otherwise)``, or the one subtree when both are
    the same: a bit no leaf depends on is not read."""
    return then if then == otherwise else If(bit, then, otherwise)


def _interiors_meet(then, otherwise) -> If:
    """``overlap(rC, sP) or overlap(rP, sC)``: a C cell of one shape in
    the other's P list puts a point of it in the other's interior."""
    return If("overlap_rC_sP", then, If("overlap_rP_sC", then, otherwise))


# ----------------------------------------------------------------------
# the Fig. 5 flows
# ----------------------------------------------------------------------
#: IFIntersects — general MBR overlap (Fig. 4e candidates).
IF_INTERSECTS = If(
    "overlap_rC_sC",
    _interiors_meet(_definite(T.INTERSECTS), _refine(T.DISJOINT, T.MEETS, T.INTERSECTS)),
    _definite(T.DISJOINT),
)

_COVERED_BY_OPEN = _refine(T.COVERED_BY, T.MEETS, T.INTERSECTS)
# rC ⊑ sC with equal MBRs: equality is excluded. An ``rC ⊑ sP`` here is
# geometrically unreachable, but the paper's flow keeps the branch (r ⊆ s
# and r ≠ s ⟹ covered by, which stays sound).
_EQUAL_COVERED_BY = If(
    "nonempty_sP", If("inside_rC_sP", _definite(T.COVERED_BY), _COVERED_BY_OPEN), _COVERED_BY_OPEN
)

#: IFEquals — equal MBRs of connected shapes (Fig. 4c candidates):
#: disjoint is impossible, so every leaf proves a relation or refines a
#: narrowed set.
IF_EQUALS = If(
    "match_rC_sC",
    # Identical conservative rasters: equals or mutual near-coverage,
    # only refinement can tell which is most specific.
    _refine(T.EQUALS, T.COVERED_BY, T.COVERS, T.INTERSECTS),
    If("inside_rC_sC", _EQUAL_COVERED_BY,
       If("inside_sC_rC", _mirror(_EQUAL_COVERED_BY, _inverse), _refine(T.MEETS, T.INTERSECTS))),
)


def _equal_disconnected(interiors_meet: bool) -> If:
    """Equal MBRs of shapes that may be disconnected (two multipolygons
    can share an MBR and interleave without touching): disjoint and
    meets stay unless the interiors meet; inside/contains stay out (an
    openness argument, no connectivity needed)."""

    def narrowed(*candidates: T) -> Leaf:
        if interiors_meet:
            candidates = tuple(c for c in candidates if c not in (T.MEETS, T.DISJOINT))
            if candidates == (T.INTERSECTS,):
                return _definite(T.INTERSECTS)
        return _refine(*candidates)

    return If(
        "match_rC_sC",
        narrowed(T.EQUALS, T.COVERED_BY, T.COVERS, T.MEETS, T.INTERSECTS, T.DISJOINT),
        If("inside_rC_sC",
           narrowed(T.COVERED_BY, T.MEETS, T.INTERSECTS, T.DISJOINT),
           If("inside_sC_rC",
              narrowed(T.COVERS, T.MEETS, T.INTERSECTS, T.DISJOINT),
              narrowed(T.MEETS, T.INTERSECTS, T.DISJOINT))),
    )


#: IFEquals for pairs where a shape may be disconnected.
IF_EQUALS_DISCONNECTED = If(
    "overlap_rC_sC",
    _interiors_meet(_equal_disconnected(True), _equal_disconnected(False)),
    _definite(T.DISJOINT),
)

# Algorithm 1's ``ref_inside``: interiors meet, disjoint/meets are out.
_INSIDE_MET = _refine(T.INSIDE, T.COVERED_BY, T.INTERSECTS)
_INSIDE_OPEN = _refine(T.DISJOINT, T.INSIDE, T.COVERED_BY, T.MEETS, T.INTERSECTS)
# A cell interior to r is touched by s: II = T again.
_INSIDE_TAIL = If("nonempty_rP", If("overlap_rP_sC", _INSIDE_MET, _INSIDE_OPEN), _INSIDE_OPEN)

#: IFInside — MBR(r) inside MBR(s) (Fig. 4a candidates).
IF_INSIDE = If(
    "overlap_rC_sC",
    If("inside_rC_sC",
       If("nonempty_sP",
          If("inside_rC_sP", _definite(T.INSIDE),
             If("overlap_rC_sP", _INSIDE_MET, _INSIDE_TAIL)),
          _INSIDE_TAIL),
       # r touches cells outside s's conservative set, so r ⊄ s: once
       # the interiors meet, the most specific relation is known.
       _interiors_meet(_definite(T.INTERSECTS), _refine(T.DISJOINT, T.MEETS, T.INTERSECTS))),
    _definite(T.DISJOINT),
)

#: IFContains — MBR(r) contains MBR(s): the mirror of IFInside.
IF_CONTAINS = _mirror(IF_INSIDE, _inverse)


# ----------------------------------------------------------------------
# the four methods
# ----------------------------------------------------------------------
def _by_mbr_case(flow: Callable[[M, bool], object]) -> object:
    """The Fig. 4 case analysis of the MBRs, in
    :func:`~repro.filters.mbr.classify_mbr_pair`'s order, then
    ``flow(case, connected)``. Bits no leaf depends on are not read."""

    def case(c: M):
        return _node("connected", flow(c, True), flow(c, False))

    return _node("mbr_disjoint", case(M.DISJOINT),
                 _node("mbr_equal", case(M.EQUAL),
                       _node("mbr_r_in_s", case(M.R_INSIDE_S),
                             _node("mbr_s_in_r", case(M.R_CONTAINS_S),
                                   _node("mbr_cross", case(M.CROSS), case(M.OVERLAP))))))


def _mbr_shortcut(case: M, connected: bool) -> Leaf | None:
    """The leaf of the MBR cases that decide a pair outright (Sec. 3.1)."""
    if case is M.DISJOINT:
        return _definite(T.DISJOINT, Stage.MBR)
    if case is M.CROSS and connected:
        return _definite(T.INTERSECTS, Stage.MBR)
    return None


def _st2(case: M, connected: bool) -> Leaf:
    if case is M.DISJOINT:
        return _definite(T.DISJOINT, Stage.MBR)
    return _refine(*SPECIFIC_TO_GENERAL, stage=Stage.MBR)


def _op2(case: M, connected: bool) -> Leaf:
    return _mbr_shortcut(case, connected) or _refine(
        *mbr_candidates_for(case, connected), stage=Stage.MBR
    )


def _april(case: M, connected: bool):
    candidates = mbr_candidates_for(case, connected)
    met = tuple(c for c in candidates if c not in (T.DISJOINT, T.MEETS))
    return _mbr_shortcut(case, connected) or If(
        "overlap_rC_sC", _interiors_meet(_refine(*met), _refine(*candidates)), _definite(T.DISJOINT)
    )


def _progressive_conservative(case: M, connected: bool):
    flows = {
        M.EQUAL: IF_EQUALS if connected else IF_EQUALS_DISCONNECTED,
        M.R_INSIDE_S: IF_INSIDE,
        M.R_CONTAINS_S: IF_CONTAINS,
    }
    return _mbr_shortcut(case, connected) or flows.get(case, IF_INTERSECTS)


#: A pair's Fig. 4 case, as a tree whose leaves are the cases.
MBR_CASES = _by_mbr_case(lambda case, connected: case)

#: Each find-relation method's filter stage, keyed by its paper name
#: (the methods are described in :mod:`repro.join.pipeline`).
FIND_TREES = {
    "ST2": _by_mbr_case(_st2),
    "OP2": _by_mbr_case(_op2),
    "APRIL": _by_mbr_case(_april),
    "P+C": _by_mbr_case(_progressive_conservative),
}


def leaves(tree) -> tuple[Leaf, ...]:
    """The distinct leaves of ``tree``, in the order a walk meets them."""
    if not isinstance(tree, If):
        return (tree,)
    return tuple(dict.fromkeys(leaves(tree.then) + leaves(tree.otherwise)))


__all__ = ["FIND_TREES", "IFResult", "Leaf", "MBR_CASES", "Stage", "leaves"]

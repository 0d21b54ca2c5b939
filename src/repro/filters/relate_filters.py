"""Predicate-specific ``relate_p`` filters (Sec. 3.3 / Fig. 6).

Given a pair and a single topological predicate ``p``, these filters
answer *does p hold?* with a three-valued verdict: YES / NO without
touching geometry, or UNKNOWN when only DE-9IM refinement can tell.
They are cheaper than the general find-relation filters because each
runs only the merge-joins that bear on its predicate — the source of
the large ``relate_p`` speedups in the paper's Table 5 (dramatic for
*meets*, where non-satisfaction is usually provable from one or two
overlap joins).

Each predicate's Fig. 6 flow is a decision tree written as data
(:data:`TREES`): an :class:`If` node names one per-pair bit of
:mod:`repro.filters.pair_bits` (an MBR case or containment,
``connected``, a Sec. 3.2 relation of the P/C lists) and the subtrees
for its two values; a leaf is a :class:`RelateVerdict`. :func:`decide`
walks a tree over a whole candidate stream as masked passes: each node
computes its bit only for the pairs that reached it. The contains and
covers trees are the mirrors of inside and covered by, intersects the
negation of disjoint.

Soundness rests on the rasterisation invariants recalled in
:mod:`repro.filters.intermediate`. The per-pair handlers these trees
replaced are the oracle ``tests/oracles/relate_filters.py``; every
tree equals its handler on every assignment of the bits it can read
(``tests/test_relate_trees.py``).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from repro.filters.pair_bits import PairBits
from repro.geometry.box import Box
from repro.raster.april import AprilApproximation, AprilColumns
from repro.topology.de9im import TopologicalRelation as T


class RelateVerdict(enum.Enum):
    """Three-valued outcome of a relate_p filter."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


YES, NO, UNKNOWN = RelateVerdict.YES, RelateVerdict.NO, RelateVerdict.UNKNOWN

#: The code of each verdict in the arrays :func:`decide` returns.
CODES = {NO: 0, YES: 1, UNKNOWN: 2}
VERDICTS = (NO, YES, UNKNOWN)


class If(NamedTuple):
    """A tree node: ``then`` where ``bit`` holds, else ``otherwise``.
    Anything else in a tree is a leaf."""

    bit: str
    then: Any
    otherwise: Any


Tree = Union[If, RelateVerdict]


def _containment(mbr_bit: str) -> Tree:
    """Shared Fig. 6 body for inside / covered by: is r ⊆ (int) s?

    ``mbr_bit`` is the MBR containment the predicate needs: touch-free
    containment forces the MBR strictly inside (a shape in the open
    interior cannot reach its container's MBR border)."""
    return If(mbr_bit,
              # r touches cells s does not: r ⊄ s.
              If("inside_rC_sC",
                 # r ⊆ int(s): inside, hence also covered by.
                 If("nonempty_sP", If("inside_rC_sP", YES, UNKNOWN), UNKNOWN),
                 NO),
              NO)


def _cells(no_shared_cell: RelateVerdict, interiors_meet: RelateVerdict) -> Tree:
    """Past the MBR shortcuts, meets and disjoint read the same three
    joins: no shared cell is disjoint, and a C cell in the other's P
    means the interiors intersect."""
    return If("overlap_rC_sC",
              If("overlap_rC_sP", interiors_meet,
                 If("overlap_rP_sC", interiors_meet, UNKNOWN)),
              no_shared_cell)


_EQUALS = If("mbr_equal",  # equal shapes have equal MBRs...
             If("match_rC_sC",  # ...and raster identically
                # identical rasters cannot *prove* equality
                If("match_rP_sP", UNKNOWN, NO),
                NO),
             NO)

_MEETS = If("mbr_disjoint", NO,
            # Crossing MBRs force connected shapes' interiors to overlap.
            If("connected", If("mbr_cross", NO, _cells(NO, NO)), _cells(NO, NO)))

_DISJOINT = If("mbr_disjoint", YES,
               # Crossing or identical MBRs force *connected* shapes to intersect.
               If("connected",
                  If("mbr_cross", NO, If("mbr_equal", NO, _cells(YES, NO))),
                  _cells(YES, NO)))

#: Each bit of the trees and the bit that reads the same fact with r and
#: s swapped (bits that do not name a side are their own mirrors).
_MIRRORED_BITS = {
    "mbr_r_in_s": "mbr_s_in_r",
    "mbr_r_strictly_in_s": "mbr_s_strictly_in_r",
    "overlap_rC_sP": "overlap_rP_sC",
    "inside_rC_sC": "inside_sC_rC",
    "inside_rC_sP": "inside_sC_rP",
    "nonempty_rP": "nonempty_sP",
}
_MIRRORED_BITS.update({v: k for k, v in _MIRRORED_BITS.items()})


def _mirror(tree: Tree, leaf: Callable[[Any], Any] = lambda verdict: verdict) -> Tree:
    """The tree of the converse predicate: every bit read with r and s
    swapped, every leaf mapped by ``leaf``."""
    if not isinstance(tree, If):
        return leaf(tree)
    bit = _MIRRORED_BITS.get(tree.bit, tree.bit)
    return If(bit, _mirror(tree.then, leaf), _mirror(tree.otherwise, leaf))


def _negate(tree: Tree) -> Tree:
    """The tree of the complementary predicate: YES and NO swapped."""
    if isinstance(tree, RelateVerdict):
        return {YES: NO, NO: YES}.get(tree, tree)
    return If(tree.bit, _negate(tree.then), _negate(tree.otherwise))


_INSIDE = _containment("mbr_r_strictly_in_s")
_COVERED_BY = _containment("mbr_r_in_s")

#: The Fig. 6 flow of every predicate.
TREES: dict[T, Tree] = {
    T.EQUALS: _EQUALS,
    T.INSIDE: _INSIDE,
    T.COVERED_BY: _COVERED_BY,
    T.CONTAINS: _mirror(_INSIDE),
    T.COVERS: _mirror(_COVERED_BY),
    T.MEETS: _MEETS,
    T.DISJOINT: _DISJOINT,
    T.INTERSECTS: _negate(_DISJOINT),
}


def decide(tree: Tree, bits: PairBits, count: int, codes: Mapping = CODES) -> np.ndarray:
    """The leaf codes of ``tree`` for pairs ``0..count-1`` of ``bits``,
    ``codes`` mapping each leaf to its code (:data:`CODES` for the
    verdicts of relate_p): one masked pass per node, over the pairs that
    reached it."""
    out = np.empty(count, dtype=np.int8)
    pending = [(tree, np.arange(count))]
    while pending:
        node, rows = pending.pop()
        if not isinstance(node, If):
            out[rows] = codes[node]
        elif rows.size:
            holds = bits.bit(node.bit, rows)
            pending.append((node.then, rows[holds]))
            pending.append((node.otherwise, rows[~holds]))
    return out


def relate_verdicts(
    predicate: T, r_objects, s_objects, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Verdict codes of ``predicate`` for ``(r_objects[i], s_objects[j])``,
    every ``(i, j)`` of ``pairs``; the objects are
    :class:`~repro.join.objects.SpatialObject`-like."""
    bits = PairBits.of_objects(r_objects, s_objects, pairs)
    return decide(TREES[predicate], bits, len(pairs))


def relate_filter(
    predicate: T,
    r_box: Box,
    s_box: Box,
    r: AprilApproximation,
    s: AprilApproximation,
    connected: bool = True,
) -> RelateVerdict:
    """Filter verdict for ``relate_p(r, s)``; UNKNOWN means refine.

    The batch of one of :func:`decide`. All eight predicates are
    supported. Pass ``connected=False`` when either shape may be a
    multipolygon: the CROSS-MBR and equal-MBR shortcuts (which assume
    connected shapes) are then skipped; everything else is
    connectivity-free.
    """
    one = np.zeros(1, dtype=np.int64)
    # The pair's connectivity rides on r: the bit is r's and s's, anded.
    r_store = AprilColumns.of([r], [r_box], [connected])
    bits = PairBits(r_store, AprilColumns.of([s], [s_box], [True]), one, one)
    return VERDICTS[decide(TREES[predicate], bits, 1)[0]]


__all__ = [
    "CODES",
    "If",
    "RelateVerdict",
    "TREES",
    "VERDICTS",
    "decide",
    "relate_filter",
    "relate_verdicts",
]

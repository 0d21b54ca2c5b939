"""DE-9IM matrices, relation masks (paper Table 1), and mask matching.

The paper's masks only use ``T``/``F``/``*``, so the matrix is stored as
a 9-character string of ``T``/``F`` in row-major order: rows are the
interior/boundary/exterior of ``r``, columns those of ``s`` —
``II IB IE  BI BB BE  EI EB EE`` flattened.

A matrix has one of 512 codes, so mask matching is a lookup: the codes
each relation's masks match are expanded once (:data:`MATCHING`). The
string matcher it replaced is the oracle ``tests/oracles/de9im.py``.
"""

from __future__ import annotations

import enum
from itertools import product
from typing import Iterable

_CELLS = ("II", "IB", "IE", "BI", "BB", "BE", "EI", "EB", "EE")


class TopologicalRelation(enum.Enum):
    """The eight topological relations of Fig. 1(a) / Fig. 2.

    ``INTERSECTS`` is the generalisation of everything except
    ``DISJOINT``; ``INSIDE``/``CONTAINS`` specialise
    ``COVERED_BY``/``COVERS``, and ``EQUALS`` specialises all four.
    """

    DISJOINT = "disjoint"
    INTERSECTS = "intersects"
    MEETS = "meets"
    EQUALS = "equals"
    INSIDE = "inside"
    CONTAINS = "contains"
    COVERED_BY = "covered by"
    COVERS = "covers"

    @property
    def inverse(self) -> "TopologicalRelation":
        """The relation seen from the other object's point of view."""
        return _INVERSES[self]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_INVERSES = {
    TopologicalRelation.DISJOINT: TopologicalRelation.DISJOINT,
    TopologicalRelation.INTERSECTS: TopologicalRelation.INTERSECTS,
    TopologicalRelation.MEETS: TopologicalRelation.MEETS,
    TopologicalRelation.EQUALS: TopologicalRelation.EQUALS,
    TopologicalRelation.INSIDE: TopologicalRelation.CONTAINS,
    TopologicalRelation.CONTAINS: TopologicalRelation.INSIDE,
    TopologicalRelation.COVERED_BY: TopologicalRelation.COVERS,
    TopologicalRelation.COVERS: TopologicalRelation.COVERED_BY,
}


class DE9IM:
    """A boolean DE-9IM matrix, e.g. ``DE9IM("FFTFFTTTT")`` for disjoint."""

    __slots__ = ("code",)

    def __init__(self, code: str) -> None:
        if len(code) != 9 or any(c not in "TF" for c in code):
            raise ValueError(f"DE-9IM code must be 9 chars of T/F, got {code!r}")
        self.code = code

    @staticmethod
    def from_cells(
        ii: bool, ib: bool, ie: bool, bi: bool, bb: bool, be: bool, ei: bool, eb: bool, ee: bool
    ) -> "DE9IM":
        # Nine booleans always make a valid code: no second validation.
        matrix = DE9IM.__new__(DE9IM)
        matrix.code = "".join(["T" if b else "F" for b in (ii, ib, ie, bi, bb, be, ei, eb, ee)])
        return matrix

    def __getattr__(self, name: str) -> bool:
        try:
            idx = _CELLS.index(name)
        except ValueError:
            raise AttributeError(name) from None
        return self.code[idx] == "T"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DE9IM) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DE9IM({self.code!r})"

    def matches(self, mask: str) -> bool:
        """True iff this matrix satisfies ``mask`` (chars ``T``/``F``/``*``)."""
        if len(mask) != 9:
            raise ValueError(f"mask must be 9 chars, got {mask!r}")
        for have, want in zip(self.code, mask):
            if want != "*" and have != want:
                return False
        return True

    def transposed(self) -> "DE9IM":
        """The matrix with the roles of ``r`` and ``s`` swapped."""
        c = self.code
        return DE9IM(c[0] + c[3] + c[6] + c[1] + c[4] + c[7] + c[2] + c[5] + c[8])


#: Table 1 of the paper, with one documented amendment. The paper prints
#: the OGC *within*/*contains* masks (``T*F**F***`` / ``T*****FF*``) for
#: *inside*/*contains*, but those masks also match covered-by/covers
#: matrices whose boundaries touch (``BB`` is wildcarded), contradicting
#: the paper's own Fig. 1(a) pictures and Fig. 2 Venn diagram where
#: *inside* ⊊ *covered by*. For areal geometries the figures' semantics
#: are recovered by pinning ``BB = F`` in the inside/contains masks,
#: which is what we do; covered by / covers keep the OGC masks, so
#: inside ⟹ covered by and contains ⟹ covers as in Fig. 2.
MASKS: dict[TopologicalRelation, tuple[str, ...]] = {
    TopologicalRelation.DISJOINT: ("FF*FF****",),
    TopologicalRelation.INTERSECTS: ("T********", "*T*******", "***T*****", "****T****"),
    TopologicalRelation.COVERS: ("T*****FF*", "*T****FF*", "***T**FF*", "****T*FF*"),
    TopologicalRelation.COVERED_BY: ("T*F**F***", "*TF**F***", "**FT*F***", "**F*TF***"),
    TopologicalRelation.EQUALS: ("T*F**FFF*",),
    TopologicalRelation.CONTAINS: ("T***F*FF*",),
    TopologicalRelation.INSIDE: ("T*F*FF***",),
    TopologicalRelation.MEETS: ("FT*******", "F**T*****", "F***T****"),
}

#: Mask-matching order used by the Refine step: most specific relation
#: first (Fig. 2's Venn diagram read inside-out).
SPECIFIC_TO_GENERAL: tuple[TopologicalRelation, ...] = (
    TopologicalRelation.EQUALS,
    TopologicalRelation.INSIDE,
    TopologicalRelation.CONTAINS,
    TopologicalRelation.COVERED_BY,
    TopologicalRelation.COVERS,
    TopologicalRelation.MEETS,
    TopologicalRelation.INTERSECTS,
    TopologicalRelation.DISJOINT,
)


#: The codes each relation matches, of the 512 a matrix can have: its
#: masks with every ``*`` expanded to both ``T`` and ``F``, built once.
MATCHING: dict[TopologicalRelation, frozenset[str]] = {
    relation: frozenset(
        "".join(code) for mask in masks for code in product(*("TF" if c == "*" else c for c in mask))
    )
    for relation, masks in MASKS.items()
}


_BY_SPECIFICITY = tuple((relation, MATCHING[relation]) for relation in SPECIFIC_TO_GENERAL)


def relation_holds(matrix: DE9IM, relation: TopologicalRelation) -> bool:
    """True iff ``relation`` holds for a pair with this DE-9IM matrix."""
    return matrix.code in MATCHING[relation]


def most_specific_relation(
    matrix: DE9IM,
    candidates: Iterable[TopologicalRelation] | None = None,
) -> TopologicalRelation:
    """The most specific relation whose mask the matrix satisfies.

    ``candidates`` restricts which masks are compared (Algorithm 1's
    *selective refinement*); the result is unchanged as long as the true
    relation is among the candidates, only fewer masks are tested.
    """
    # Tuples, not sets or dicts keyed by relation: ``in`` on a tuple
    # compares identities, where hashing an enum runs Python code.
    allowed = SPECIFIC_TO_GENERAL if candidates is None else tuple(candidates)
    for relation, codes in _BY_SPECIFICITY:
        if matrix.code in codes and relation in allowed:
            return relation
    # Two areal geometries always satisfy either a candidate mask or
    # disjoint; reaching here means the candidate set was wrong.
    raise ValueError(
        f"matrix {matrix.code} matches none of the candidate relations {sorted(r.value for r in allowed)}"
    )


__all__ = [
    "DE9IM",
    "MASKS",
    "SPECIFIC_TO_GENERAL",
    "MATCHING",
    "TopologicalRelation",
    "most_specific_relation",
    "relation_holds",
]

"""The DE-9IM string matcher.

Until the lookup tables of :mod:`repro.topology.de9im`
(:data:`~repro.topology.de9im.MATCHING`) this was how a matrix met a
relation: its code compared with each of the relation's Table 1 masks,
character by character. ``tests/test_topology_de9im.py`` checks the
tables against it on all 512 codes and all eight relations.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.topology.de9im import DE9IM, MASKS, SPECIFIC_TO_GENERAL, TopologicalRelation


def matches(code: str, mask: str) -> bool:
    """True iff ``code`` satisfies ``mask`` (chars ``T``/``F``/``*``)."""
    if len(mask) != 9:
        raise ValueError(f"mask must be 9 chars, got {mask!r}")
    for have, want in zip(code, mask):
        if want != "*" and have != want:
            return False
    return True


def matrix_matches_any(matrix: DE9IM, masks: Sequence[str]) -> bool:
    """True iff ``matrix`` satisfies at least one of ``masks``."""
    return any(matches(matrix.code, m) for m in masks)


def relation_holds(matrix: DE9IM, relation: TopologicalRelation) -> bool:
    """True iff ``relation`` holds for a pair with this DE-9IM matrix."""
    return matrix_matches_any(matrix, MASKS[relation])


def most_specific_relation(
    matrix: DE9IM,
    candidates: Iterable[TopologicalRelation] | None = None,
) -> TopologicalRelation:
    """The most specific relation whose mask the matrix satisfies."""
    allowed = set(SPECIFIC_TO_GENERAL if candidates is None else candidates)
    for relation in SPECIFIC_TO_GENERAL:
        if relation in allowed and relation_holds(matrix, relation):
            return relation
    raise ValueError(
        f"matrix {matrix.code} matches none of the candidate relations {sorted(r.value for r in allowed)}"
    )

"""Explain: a human-readable trace of one pair's journey through P+C.

Debugging a filter verdict (or teaching the method) needs to see the
exact sequence Algorithm 1 executed: the MBR case, each interval
merge-join and its result, the filter verdict, and — when refinement
runs — the DE-9IM matrix and the mask that matched. ``explain_pair``
walks the join's own P+C tree (:data:`repro.join.pipeline.PIPELINES`)
for the pair, over the same bits, and renders every list bit it read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.filters.intermediate import Stage
from repro.filters.mbr import MBRRelationship, classify_mbr_pair
from repro.filters.pair_bits import MBR_BITS, PairBits
from repro.filters.relate_filters import If
from repro.join.objects import SpatialObject
from repro.join.pipeline import PIPELINES
from repro.topology.de9im import TopologicalRelation as T, most_specific_relation
from repro.topology.relate import relate

@dataclass
class PairExplanation:
    """Structured trace of one find-relation evaluation."""

    mbr_case: MBRRelationship
    connected: bool
    checks: list[str] = field(default_factory=list)
    filter_verdict: str = ""
    refined: bool = False
    matrix_code: str | None = None
    relation: T | None = None

    def render(self) -> str:
        lines = [f"MBR case: {self.mbr_case.value}" + ("" if self.connected else " (multi-part input)")]
        for check in self.checks:
            lines.append(f"  - {check}")
        lines.append(f"filter: {self.filter_verdict}")
        if self.refined:
            lines.append(f"refinement: DE-9IM = {self.matrix_code}")
        lines.append(f"relation: {self.relation.value if self.relation else '?'}")
        return "\n".join(lines)


def _check(name: str, holds: bool, bits: PairBits) -> str:
    """A list bit as read (``rC inside sP = True``), with the sizes of
    the lists it read."""
    relation, first, *other = name.split("_")
    sizes = (
        f"|{op}|={getattr(bits.stores[op[0]], op[1].lower()).lengths[bits.rows[op[0]][0]]}"
        for op in (first, *other)
    )
    return f"{' '.join((first, relation, *other))} = {holds}   ({', '.join(sizes)})"


def explain_pair(r: SpatialObject, s: SpatialObject) -> PairExplanation:
    """Trace the P+C pipeline on one candidate pair."""
    trace = PairExplanation(
        mbr_case=classify_mbr_pair(r.box, s.box),
        connected=r.is_connected and s.is_connected,
    )
    pipeline = PIPELINES["P+C"]
    bits = PairBits.of_objects([r], [s], [(0, 0)])
    row = np.zeros(1, dtype=np.int64)
    node = pipeline.tree
    while isinstance(node, If):
        holds = bool(bits.bit(node.bit, row)[0])
        if node.bit not in MBR_BITS and node.bit != "connected":
            trace.checks.append(_check(node.bit, holds, bits))
        node = node.then if holds else node.otherwise

    verdict, stage = node
    if verdict.definite is not None:
        by = "MBR filter" if stage is Stage.MBR else "intermediate filter"
        trace.filter_verdict = f"{by} -> {verdict.definite.value} (definite)"
        trace.relation = verdict.definite
        return trace

    names = ", ".join(c.value for c in verdict.refine_candidates)
    trace.filter_verdict = f"inconclusive -> refine against {{{names}}}"
    trace.refined = True
    matrix = relate(r.polygon, s.polygon)
    trace.matrix_code = matrix.code
    trace.relation = most_specific_relation(matrix, verdict.refine_candidates)
    return trace


__all__ = ["PairExplanation", "explain_pair"]

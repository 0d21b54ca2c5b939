"""Explain: a human-readable trace of one pair's journey through P+C.

Debugging a filter verdict (or teaching the method) needs to see the
exact sequence Algorithm 1 executed: the MBR case, each interval
merge-join and its result, the filter verdict, and — when refinement
runs — the DE-9IM matrix and the mask that matched. ``explain_pair``
re-runs the pipeline with instrumentation and renders the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.filters.intermediate import intermediate_filter
from repro.filters.mbr import MBRRelationship, classify_mbr_pair, mbr_candidates_for
from repro.join.objects import SpatialObject
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


def explain_pair(r: SpatialObject, s: SpatialObject) -> PairExplanation:
    """Trace the P+C pipeline on one candidate pair."""
    case = classify_mbr_pair(r.box, s.box)
    connected = r.is_connected and s.is_connected
    trace = PairExplanation(mbr_case=case, connected=connected)

    if case is MBRRelationship.DISJOINT:
        trace.filter_verdict = "MBRs disjoint -> disjoint (definite)"
        trace.relation = T.DISJOINT
        return trace
    if case is MBRRelationship.CROSS and connected:
        trace.filter_verdict = "crossing MBRs of connected shapes -> intersects (definite)"
        trace.relation = T.INTERSECTS
        return trace

    ra = r.require_april()
    sa = s.require_april()

    # Record the merge-join facts the filters may consult. (Cheap: each
    # is a linear pass over short lists.)
    cc = ra.c.overlaps(sa.c)
    trace.checks.append(f"overlap(rC, sC) = {cc}   (|rC|={len(ra.c)}, |sC|={len(sa.c)})")
    if cc:
        if case in (MBRRelationship.EQUAL, MBRRelationship.R_INSIDE_S):
            trace.checks.append(f"rC inside sC = {ra.c.inside(sa.c)}")
        if case in (MBRRelationship.EQUAL, MBRRelationship.R_CONTAINS_S):
            trace.checks.append(f"rC contains sC = {ra.c.contains(sa.c)}")
        if case is MBRRelationship.EQUAL:
            trace.checks.append(f"rC,sC match = {ra.c.matches(sa.c)}")
        trace.checks.append(
            f"overlap(rC, sP) = {ra.c.overlaps(sa.p)}   (|sP|={len(sa.p)})"
        )
        trace.checks.append(
            f"overlap(rP, sC) = {ra.p.overlaps(sa.c)}   (|rP|={len(ra.p)})"
        )
        if sa.p:
            trace.checks.append(f"rC inside sP = {ra.c.inside(sa.p)}")
        if ra.p:
            trace.checks.append(f"rP contains sC = {ra.p.contains(sa.c)}")

    verdict = intermediate_filter(case, ra, sa, connected)
    if verdict.definite is not None:
        trace.filter_verdict = f"intermediate filter -> {verdict.definite.value} (definite)"
        trace.relation = verdict.definite
        return trace

    assert verdict.refine_candidates is not None
    names = ", ".join(c.value for c in verdict.refine_candidates)
    trace.filter_verdict = f"inconclusive -> refine against {{{names}}}"
    trace.refined = True
    matrix = relate(r.polygon, s.polygon)
    trace.matrix_code = matrix.code
    trace.relation = most_specific_relation(matrix, verdict.refine_candidates)
    return trace


__all__ = ["PairExplanation", "explain_pair"]

"""The four evaluated find-relation pipelines and the relate_p pipeline.

Methods (paper Sec. 4):

- **ST2** — standard 2-phase: MBR disjointness test, then a full DE-9IM
  computation checked against all relation masks.
- **OP2** — optimized 2-phase: the enhanced MBR filter of Sec. 3.1
  narrows the candidate relations (and resolves the CROSS case), but
  every surviving pair is still refined.
- **APRIL** — optimized MBR filter + the intersection-only intermediate
  filter of [14]: joins ``rC×sC`` (no overlap ⟹ disjoint, final) and
  ``rC×sP`` / ``rP×sC`` (overlap ⟹ definite intersection — which still
  goes to refinement, because a more specific relation may hold; the
  proven interior intersection only removes disjoint/meets masks).
- **P+C** — the paper's contribution (Algorithm 1): the MBR case
  dispatches to a specialised intermediate filter (Fig. 5) that can
  prove the most specific relation outright.

Every pipeline ends in the same refinement primitive — a DE-9IM matrix
matched against its candidate masks in specific-to-general order — so
differences between methods are purely in how often and with how many
candidates that refinement runs.
"""

from __future__ import annotations

import enum
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.filters.intermediate import IFResult, intermediate_filter
from repro.filters.mbr import MBRRelationship, classify_mbr_pair, mbr_candidates_for
from repro.filters.relate_filters import CODES, RelateVerdict, relate_verdicts
from repro.join.objects import SpatialObject, relate_objects
from repro.join.stats import JoinRunStats
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.profile import clear_phase, profiling_enabled, set_phase
from repro.obs.trace import add_span, trace
from repro.topology.de9im import (
    SPECIFIC_TO_GENERAL,
    TopologicalRelation as T,
    most_specific_relation,
    relation_holds,
)


@contextmanager
def _phase(name: str) -> Iterator[None]:
    """Attribute the enclosed work to a profiler phase: per-pair work
    runs *between* spans, so the sampler needs an explicit marker."""
    if profiling_enabled():
        set_phase(name)
    try:
        yield
    finally:
        clear_phase()


class Stage(enum.Enum):
    """Which pipeline stage produced the final relation of a pair."""

    MBR = "mbr"
    INTERMEDIATE = "if"
    REFINEMENT = "refinement"


@dataclass(frozen=True, slots=True)
class FindRelationOutcome:
    """Find-relation answer for one pair plus its provenance."""

    relation: T
    stage: Stage


class Pipeline(ABC):
    """A find-relation method: a filter stage plus shared refinement."""

    #: Method name as used in the paper's plots.
    name: str = "?"
    #: Whether the method requires APRIL approximations.
    uses_april: bool = False

    @abstractmethod
    def filter_pair(
        self, r: SpatialObject, s: SpatialObject
    ) -> tuple[IFResult, Stage]:
        """Run the method's filter stage.

        Returns the filter verdict and the stage a *definite* verdict is
        attributed to (``Stage.MBR`` or ``Stage.INTERMEDIATE``).
        """

    def filter_pairs(
        self,
        r_objects: Sequence[SpatialObject],
        s_objects: Sequence[SpatialObject],
        pairs: Sequence[tuple[int, int]],
    ) -> list[tuple[IFResult, Stage]]:
        """Run the filter stage over a whole candidate stream: the map
        of :meth:`filter_pair` over ``pairs``, for every method.

        A pair's Fig. 5 flow is a few merge-joins of its own lists; a
        candidate stream rarely shares an ``r`` between pairs, so there
        is no probe to amortise across them (DESIGN §6).
        """
        return [self.filter_pair(r_objects[i], s_objects[j]) for i, j in pairs]

    def refine_pairs(
        self,
        r_objects: Sequence[SpatialObject],
        s_objects: Sequence[SpatialObject],
        items: Sequence[tuple[int, int, Sequence[T]]],
    ) -> list[T]:
        """Shared refinement of ``(i, j, candidates)`` items: one DE-9IM
        batch (:func:`~repro.topology.kernel.relate_many`), then
        selective mask matching per pair."""
        details = relate_objects(r_objects, s_objects, [(i, j) for i, j, _ in items])
        return [
            most_specific_relation(d.matrix, candidates)
            for d, (_, _, candidates) in zip(details, items)
        ]

    def refine_pair(
        self, r: SpatialObject, s: SpatialObject, candidates: Sequence[T]
    ) -> T:
        """Shared refinement of one pair: :meth:`refine_pairs`' batch of one."""
        return self.refine_pairs([r], [s], [(0, 0, candidates)])[0]

    def find_relation(self, r: SpatialObject, s: SpatialObject) -> FindRelationOutcome:
        """Most specific topological relation of one candidate pair."""
        verdict, stage = self.filter_pair(r, s)
        if verdict.definite is not None:
            return FindRelationOutcome(verdict.definite, stage)
        assert verdict.refine_candidates is not None
        with _phase("refine"):
            relation = self.refine_pair(r, s, verdict.refine_candidates)
        return FindRelationOutcome(relation, Stage.REFINEMENT)


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
        ra.check_compatible(sa)
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


#: One verified find-relation pair: ``(r_index, s_index, relation,
#: filtered)`` where ``filtered`` is True when no DE-9IM refinement ran.
PairOutcome = tuple[int, int, T, bool]


class Verified(NamedTuple):
    """What verifying one partition of a candidate stream produced."""

    #: :data:`PairOutcome` rows (find-relation) or matching ``(i, j)``
    #: pairs (relate_p), in the order the partition listed its pairs.
    rows: list
    stats: JoinRunStats
    #: Indices of the objects whose exact geometry refinement read.
    touched_r: set[int]
    touched_s: set[int]


class _Instruments:
    """What the two verification loops share besides the pairs: the
    stage timers in ``stats``, the refine-batch histogram, profiler
    phase markers and the metrics registry."""

    def __init__(
        self,
        method: str,
        r_objects: Sequence[SpatialObject],
        s_objects: Sequence[SpatialObject],
        total: int,
    ) -> None:
        self.stats = JoinRunStats(method=method)
        self.stats.r_objects_total = len(r_objects)
        self.stats.s_objects_total = len(s_objects)
        self.total = total
        self.registry = get_registry() if metrics_enabled() else None
        self.touched_r: set[int] = set()
        self.touched_s: set[int] = set()

    @contextmanager
    def filtering(self) -> Iterator[None]:
        """Time the enclosed filter stage as the ``filter`` span."""
        t0 = time.perf_counter()
        with _phase("filter"), trace("filter", pairs=self.total):
            yield
        self.stats.filter_seconds += time.perf_counter() - t0

    def refine(self, pairs: Sequence[tuple[int, int]], compute, *args):
        """One refinement batch ``compute(*args)`` over ``pairs``, timed
        into ``refine_seconds`` under the ``refine`` profiler phase and
        observed once as ``repro_refine_batch_seconds``."""
        for i, j in pairs:
            self.touched_r.add(i)
            self.touched_s.add(j)
        t0 = time.perf_counter()
        with _phase("refine"):
            result = compute(*args)
        elapsed = time.perf_counter() - t0
        self.stats.refine_seconds += elapsed
        if self.registry is not None:
            self.registry.observe(
                "repro_refine_batch_seconds", elapsed, method=self.stats.method
            )
        return result

    def finish(self, rows: list) -> Verified:
        stats = self.stats
        stats.r_objects_accessed = len(self.touched_r)
        stats.s_objects_accessed = len(self.touched_s)
        # The refinement batches, attached with their measured duration
        # so span totals reconcile with ``refine_seconds``.
        add_span("refine", stats.refine_seconds, pairs=stats.refined)
        return Verified(rows, stats, self.touched_r, self.touched_s)


def verify_find_relation(
    pipeline: Pipeline,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
) -> Verified:
    """Algorithm 1 over one partition: the method's filter on each pair,
    then one batched refinement of every pair it left undecided.

    The one find-relation verification loop: the in-process run calls
    it on the whole stream, forked workers (and their in-parent
    fallback) on their partition. Access counters describe this
    partition alone; callers that merge partitions deduplicate them.
    """
    inst = _Instruments(pipeline.name, r_objects, s_objects, len(pairs))
    stats, registry = inst.stats, inst.registry
    # MBR cases are re-derived (cheap float compares) only when the
    # per-case verdict counters are actually wanted.
    cases = (
        [classify_mbr_pair(r_objects[i].box, s_objects[j].box).value for i, j in pairs]
        if registry is not None
        else None
    )
    with inst.filtering():
        verdicts = pipeline.filter_pairs(r_objects, s_objects, pairs)

    rows: list[PairOutcome] = [None] * len(pairs)  # type: ignore[list-item]

    def record(k: int, relation: T, stage: Stage) -> None:
        i, j = pairs[k]
        stats.record(relation, stage.value)
        rows[k] = (i, j, relation, stage is not Stage.REFINEMENT)
        if registry is not None:
            registry.inc(
                "repro_verdicts_total",
                method=pipeline.name,
                case=cases[k],
                stage=stage.value,
                relation=relation.value,
            )

    undecided: list[int] = []
    for k, (verdict, stage) in enumerate(verdicts):
        if verdict.definite is None:
            assert verdict.refine_candidates is not None
            undecided.append(k)
        else:
            record(k, verdict.definite, stage)
    if undecided:
        items = [(*pairs[k], verdicts[k][0].refine_candidates) for k in undecided]
        relations = inst.refine(
            [pairs[k] for k in undecided], pipeline.refine_pairs, r_objects, s_objects, items
        )
        for k, relation in zip(undecided, relations):
            record(k, relation, Stage.REFINEMENT)
    return inst.finish(rows)


def run_find_relation(
    pipeline: Pipeline | str,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Iterable[tuple[int, int]],
) -> JoinRunStats:
    """Process a candidate-pair stream, timing filter and refine stages.

    ``pairs`` holds indices into the two object lists, as produced by an
    MBR intersection join (:mod:`repro.join.mbr_join`), whose own cost
    is excluded — matching the paper's measurement methodology. The
    statistics-only, one-partition view of :func:`verify_find_relation`.
    """
    if isinstance(pipeline, str):
        pipeline = PIPELINES[pipeline]
    pairs = list(pairs)
    with trace("run_find_relation", method=pipeline.name, pairs=len(pairs)):
        return verify_find_relation(pipeline, r_objects, s_objects, pairs).stats


# ----------------------------------------------------------------------
# relate_p (Sec. 3.3)
# ----------------------------------------------------------------------
_YES = CODES[RelateVerdict.YES]
_UNKNOWN = CODES[RelateVerdict.UNKNOWN]


def _refine_predicates(
    predicate: T,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
) -> list[bool]:
    """relate_p refinement of many pairs: one DE-9IM batch, each
    matrix against the mask."""
    return [
        relation_holds(d.matrix, predicate)
        for d in relate_objects(r_objects, s_objects, pairs)
    ]


def _refine_predicate(predicate: T, r: SpatialObject, s: SpatialObject) -> bool:
    """relate_p refinement of one pair: the batch of one."""
    return _refine_predicates(predicate, [r], [s], [(0, 0)])[0]


def relate_predicate(
    predicate: T, r: SpatialObject, s: SpatialObject
) -> tuple[bool, Stage]:
    """Does ``predicate`` hold for the pair? (Fig. 6 filter + fallback;
    the batch of one of :func:`verify_relate`'s filter.)"""
    code = relate_verdicts(predicate, [r], [s], [(0, 0)])[0]
    if code != _UNKNOWN:
        return bool(code == _YES), Stage.INTERMEDIATE
    with _phase("refine"):
        return _refine_predicate(predicate, r, s), Stage.REFINEMENT


def verify_relate(
    predicate: T,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
) -> Verified:
    """``relate_p`` over one partition: the predicate's Fig. 6 tree over
    the whole partition (:func:`~repro.filters.relate_filters.decide`),
    then one batched refinement of the pairs it leaves undecided.

    The one relate_p verification loop, shared by the same callers as
    :func:`verify_find_relation`. ``filter_seconds`` is the time inside
    the filters, ``refine_seconds`` the time inside DE-9IM (Table 5's
    split) — for every worker count.
    """
    inst = _Instruments(f"relate[{predicate.value}]", r_objects, s_objects, len(pairs))
    stats, registry = inst.stats, inst.registry
    with inst.filtering():
        codes = relate_verdicts(predicate, r_objects, s_objects, pairs)
    holds = codes == _YES
    undecided = np.flatnonzero(codes == _UNKNOWN)
    if undecided.size:
        refined = [pairs[k] for k in undecided.tolist()]
        holds[undecided] = inst.refine(
            refined, _refine_predicates, predicate, r_objects, s_objects, refined
        )
    stats.pairs += len(pairs)
    stats.refined += int(undecided.size)
    stats.resolved_if += len(pairs) - int(undecided.size)
    matches = [tuple(pairs[k]) for k in np.flatnonzero(holds).tolist()]
    if matches:
        stats.relation_counts[predicate] += len(matches)
    if registry is not None:
        refined_mask = codes == _UNKNOWN
        for stage, at_stage in (("if", ~refined_mask), ("refinement", refined_mask)):
            for verdict, with_verdict in (("yes", holds), ("no", ~holds)):
                count = int(np.count_nonzero(at_stage & with_verdict))
                if count:
                    registry.inc(
                        "repro_relate_verdicts_total",
                        count,
                        predicate=predicate.value,
                        stage=stage,
                        verdict=verdict,
                    )
    return inst.finish(matches)


def run_relate(
    predicate: T,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Iterable[tuple[int, int]],
) -> JoinRunStats:
    """Run ``relate_p`` over a candidate-pair stream (Table 5's metric):
    the statistics-only, one-partition view of :func:`verify_relate`."""
    pairs = list(pairs)
    with trace("run_relate", predicate=predicate.value, pairs=len(pairs)):
        return verify_relate(predicate, r_objects, s_objects, pairs).stats


__all__ = [
    "AprilIntersectionPipeline",
    "FindRelationOutcome",
    "OptimizedTwoPhasePipeline",
    "PIPELINES",
    "Pipeline",
    "ProgressiveConservativePipeline",
    "PairOutcome",
    "Stage",
    "StandardTwoPhasePipeline",
    "Verified",
    "relate_predicate",
    "run_find_relation",
    "run_relate",
    "verify_find_relation",
    "verify_relate",
]

"""The four evaluated find-relation pipelines and the relate_p pipeline.

Methods (paper Sec. 4), each a filter tree of
:mod:`repro.filters.intermediate`:

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

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.filters.intermediate import FIND_TREES, MBR_CASES, Leaf, Stage, leaves
from repro.filters.mbr import MBRRelationship
from repro.filters.pair_bits import PairBits
from repro.filters.relate_filters import CODES, RelateVerdict, decide, relate_verdicts
from repro.join.objects import SpatialObject, relate_objects
from repro.join.stats import JoinRunStats
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.profile import clear_phase, profiling_enabled, set_phase
from repro.obs.trace import add_span, trace
from repro.topology.de9im import (
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


@dataclass(frozen=True, slots=True)
class FindRelationOutcome:
    """Find-relation answer for one pair plus its provenance."""

    relation: T
    stage: Stage


class Pipeline:
    """A find-relation method: a filter stage plus shared refinement.

    The filter stage is the method's decision tree
    (:data:`~repro.filters.intermediate.FIND_TREES`), walked over a
    whole candidate stream by :func:`~repro.filters.relate_filters.decide`;
    each :class:`~repro.filters.intermediate.Leaf` is the filter verdict
    and the stage a *definite* verdict is attributed to.
    """

    def __init__(self, name: str, uses_april: bool, tree) -> None:
        #: Method name as used in the paper's plots.
        self.name = name
        #: Whether the method requires APRIL approximations.
        self.uses_april = uses_april
        self.tree = tree
        #: The tree's leaves; :meth:`filter_codes` gives their indices.
        self.leaves: tuple[Leaf, ...] = leaves(tree)
        self._codes = {leaf: k for k, leaf in enumerate(self.leaves)}

    def filter_codes(self, bits: PairBits, count: int) -> np.ndarray:
        """The index into :attr:`leaves` of pairs ``0..count-1`` of ``bits``."""
        return decide(self.tree, bits, count, self._codes)

    def filter_pairs(
        self,
        r_objects: Sequence[SpatialObject],
        s_objects: Sequence[SpatialObject],
        pairs: Sequence[tuple[int, int]],
    ) -> list[Leaf]:
        """The filter stage's leaf for every ``(r_objects[i], s_objects[j])``
        of ``pairs``, decided as one stream."""
        bits = PairBits.of_objects(r_objects, s_objects, pairs)
        return [self.leaves[c] for c in self.filter_codes(bits, len(pairs)).tolist()]

    def filter_pair(self, r: SpatialObject, s: SpatialObject) -> Leaf:
        """The filter stage of one pair: :meth:`filter_pairs`' batch of one."""
        return self.filter_pairs([r], [s], [(0, 0)])[0]

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


#: The four evaluated methods, keyed by their paper names.
PIPELINES: dict[str, Pipeline] = {
    p.name: p
    for p in (
        Pipeline("ST2", False, FIND_TREES["ST2"]),
        Pipeline("OP2", False, FIND_TREES["OP2"]),
        Pipeline("APRIL", True, FIND_TREES["APRIL"]),
        Pipeline("P+C", True, FIND_TREES["P+C"]),
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


#: Each Fig. 4 case's code in :data:`~repro.filters.intermediate.MBR_CASES`.
_CASES = tuple(MBRRelationship)
_CASE_CODES = {case: k for k, case in enumerate(_CASES)}


def verify_find_relation(
    pipeline: Pipeline,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
) -> Verified:
    """Algorithm 1 over one partition: the method's tree over the whole
    partition, then one batched refinement of every pair it left
    undecided.

    The one find-relation verification loop: the in-process run calls
    it on the whole stream, forked workers (and their in-parent
    fallback) on their partition. Access counters describe this
    partition alone; callers that merge partitions deduplicate them.
    """
    inst = _Instruments(pipeline.name, r_objects, s_objects, len(pairs))
    stats, registry, leaves = inst.stats, inst.registry, pipeline.leaves
    count = len(pairs)
    with inst.filtering():
        bits = PairBits.of_objects(r_objects, s_objects, pairs)
        codes = pipeline.filter_codes(bits, count)
    definite = [leaf.result.definite for leaf in leaves]
    decided = np.array([d is not None for d in definite], dtype=bool)[codes]
    undecided = np.flatnonzero(~decided).tolist()
    relations = [definite[c] for c in codes.tolist()]
    if undecided:
        items = [(*pairs[k], leaves[codes[k]].result.refine_candidates) for k in undecided]
        refined = inst.refine(
            [pairs[k] for k in undecided], pipeline.refine_pairs, r_objects, s_objects, items
        )
        for k, relation in zip(undecided, refined):
            relations[k] = relation
    rows: list[PairOutcome] = [
        (i, j, relation, f) for (i, j), relation, f in zip(pairs, relations, decided.tolist())
    ]

    # Every pair's (MBR case, stage, relation), for the counters and the
    # metrics: a definite leaf fixes the last two for all the pairs that
    # reached it, so those are counted per (case, leaf) by one bincount.
    cases = decide(MBR_CASES, bits, count, _CASE_CODES)
    width = len(leaves)
    per_case_leaf = np.bincount(cases.astype(np.int64) * width + codes, minlength=len(_CASES) * width)
    outcomes: Counter = Counter()
    for key in np.flatnonzero(per_case_leaf).tolist():
        case, code = divmod(key, width)
        if definite[code] is not None:
            outcomes[_CASES[case], leaves[code].stage, definite[code]] += int(per_case_leaf[key])
    outcomes.update((_CASES[cases[k]], Stage.REFINEMENT, relations[k]) for k in undecided)
    for (case, stage, relation), n in outcomes.items():
        stats.record(relation, stage.value, n)
        if registry is not None:
            registry.inc(
                "repro_verdicts_total",
                n,
                method=pipeline.name,
                case=case.value,
                stage=stage.value,
                relation=relation.value,
            )
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
    "FindRelationOutcome",
    "PIPELINES",
    "Pipeline",
    "PairOutcome",
    "Stage",
    "Verified",
    "relate_predicate",
    "run_find_relation",
    "run_relate",
    "verify_find_relation",
    "verify_relate",
]

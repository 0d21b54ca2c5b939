"""Partitioned parallel execution of the join pipelines.

The verification stage is embarrassingly parallel: every candidate pair
is verified independently. This module is the one partition fan-out
over the two verification functions of :mod:`repro.join.pipeline`
(:func:`~repro.join.pipeline.verify_find_relation`,
:func:`~repro.join.pipeline.verify_relate`): it cuts the candidate
stream into contiguous chunks
(:func:`~repro.parallel.chunking.chunk_pairs`), runs the verification
function on every chunk in supervised forked workers, and merges the
per-partition rows deterministically in ``(i, j)`` order, so a parallel
run is bit-for-bit comparable to a serial one regardless of worker
count or scheduling. One worker is the one-partition case: the same
function, called in-process.

Worker state travels by fork inheritance (the task function is a
closure over the object lists and the partitions, which forked workers
simply inherit), so nothing large is pickled per task; only the compact
per-pair outcome tuples come back through the result pipe. On platforms
without the ``fork`` start method everything runs as the in-process
one-partition case.

Timing semantics: the merged :class:`~repro.join.stats.JoinRunStats`
carries *summed worker CPU time* in ``filter_seconds`` /
``refine_seconds`` (comparable across methods and worker counts), while
``wall_seconds`` on the run object measures end-to-end elapsed time
including pool startup — the number speedup claims should be made from.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.resilience.failpoints import maybe_fail_worker

from repro.join.objects import SpatialObject
from repro.join.pipeline import (
    PIPELINES,
    PairOutcome,
    Pipeline,
    Verified,
    verify_find_relation,
    verify_relate,
)
from repro.join.stats import JoinRunStats
from repro.obs import (
    attach_spans,
    begin_worker_capture,
    export_worker_capture,
    get_registry,
    merge_worker_capture,
    metrics_enabled,
    trace,
)
from repro.parallel.chunking import chunk_pairs
from repro.topology.de9im import TopologicalRelation

if TYPE_CHECKING:
    from repro.resilience.supervisor import SupervisionReport


def default_workers() -> int:
    """Default degree of parallelism: up to four cores."""
    return min(4, os.cpu_count() or 1)


def resolve_workers(workers: int | None) -> int:
    """The effective worker count a request resolves to.

    ``None`` means "pick for me" and resolves through
    :func:`default_workers` — which caps at the machine's core count,
    so a 1-CPU box resolves to 1. Mode selection must call this
    *before* deciding serial vs parallel; deciding on the raw ``None``
    used to classify a 1-CPU machine as "parallel" and then run a
    pointless 1-worker pool.
    """
    return default_workers() if workers is None else workers


def fork_available() -> bool:
    """Whether the copy-on-write ``fork`` start method exists here.

    Imported here, not at module level: only a fan-out asks, and a
    serial join must not load ``multiprocessing``."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


#: Candidate pairs below which ``mode="auto"`` stays in-process: forking
#: and tearing down the pool costs 0.07–0.2 s per join, which a second
#: core only earns back on a long enough stream. Measured break-even
#: (table in docs/architecture.md, "Auto mode"): the pool loses below
#: ~2,000 pairs and wins from there on.
PARALLEL_MIN_PAIRS = 2048


def auto_mode(workers: int | None, pairs: int) -> str:
    """What ``mode="auto"`` runs for ``pairs`` candidates: ``"parallel"``
    iff more than one worker can run at once *and* the stream amortises
    the pool start-up, else ``"serial"``."""
    usable = min(resolve_workers(workers), os.cpu_count() or 1)
    return "parallel" if usable > 1 and pairs >= PARALLEL_MIN_PAIRS else "serial"


@dataclass
class ParallelRun:
    """Merged outcome of a partitioned verification run."""

    #: Find-relation: one :data:`PairOutcome` per candidate pair;
    #: relate_p: the pairs satisfying the predicate. Sorted by
    #: ``(i, j)`` — deterministic across worker counts.
    results: list
    stats: JoinRunStats
    #: End-to-end elapsed seconds, including pool startup.
    wall_seconds: float
    workers: int
    partitions: int
    #: What the supervisor had to do (retries, timeouts, fallbacks);
    #: ``None`` for in-process runs that never forked a pool.
    supervision: SupervisionReport | None = None

    @property
    def matches(self) -> list[tuple[int, int]]:
        """The relate_p name of :attr:`results`."""
        return self.results


def _fan_out(
    verify: Callable[..., Verified],
    subject: Pipeline | TopologicalRelation,
    stage: str,
    attrs: dict,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
    workers: int | None,
    partition_timeout: float | None,
    max_retries: int | None,
) -> ParallelRun:
    """Run ``verify(subject, ...)`` over ``pairs`` in partitions, under
    a ``parallel_<stage>`` span carrying ``attrs``.

    ``workers <= 1``, a trivially small stream and platforms without
    ``fork`` are the one-partition case, run in this process. Otherwise
    chunks run in supervised forked workers: each attempt has a
    ``partition_timeout`` deadline, failed/hung/crashed partitions are
    retried at most ``max_retries`` times, and poisoned partitions
    re-execute serially in-parent — the merged result is identical to
    a one-partition run for any failure schedule (see
    :mod:`repro.resilience.supervisor`).
    """
    pairs = list(pairs)
    workers = resolve_workers(workers)
    start = time.perf_counter()

    span = f"parallel_{stage}"
    supervision = None
    if workers <= 1 or len(pairs) < 2 or not fork_available():
        workers = 1
        with trace(span, **attrs, workers=1, partitions=1):
            verified = [verify(subject, r_objects, s_objects, pairs)]
    else:
        from repro.filters.pair_bits import key_stores
        from repro.resilience.supervisor import supervised_map

        parts = chunk_pairs(pairs, workers)
        # Built once here, the stores' search keys reach every forked
        # worker, which would otherwise each key the whole store.
        key_stores(r_objects, s_objects)

        def verify_part(part_index: int, fallback: bool = False) -> Verified:
            part = parts[part_index]
            extra = {"fallback": True} if fallback else {}
            with trace("partition", part=part_index, pairs=len(part), **extra):
                return verify(subject, r_objects, s_objects, part)

        def worker(task: tuple[int, int]) -> tuple[Verified, dict | None]:
            part_index, attempt = task
            maybe_fail_worker(part_index, attempt)
            begin_worker_capture()
            return verify_part(part_index), export_worker_capture()

        def rerun_in_parent(part_index: int) -> tuple[Verified, None]:
            # The same pure computation as ``worker`` but without the
            # failpoint boundary and without swapping obs collectors:
            # metrics and spans record straight into the parent's
            # registry/tracer, so the merged totals still equal a
            # serial run's.
            return verify_part(part_index, fallback=True), None

        with trace(span, **attrs, workers=workers, partitions=len(parts)):
            part_results, supervision = supervised_map(
                worker,
                len(parts),
                workers=workers,
                serial_runner=rerun_in_parent,
                stage=stage,
                partition_timeout=partition_timeout,
                max_retries=max_retries,
            )
            # Task order, so the grafted span forest and the merged
            # registry are the same for any worker count — the
            # guarantee the ``(i, j)``-sorted row merge gives.
            for _, captured in part_results:
                attach_spans(merge_worker_capture(captured))
        verified = [v for v, _ in part_results]
        if metrics_enabled():
            registry = get_registry()
            for part in parts:
                # Pairs per partition: the skew signal of the fan-out.
                registry.observe(
                    "repro_partition_pairs", len(part), method=verified[0].stats.method
                )

    stats = verified[0].stats.merge(*(v.stats for v in verified[1:]))
    # Partitions share one object universe, so the summed access
    # counters from merge() overcount; overwrite them deduplicated.
    stats.r_objects_total = len(r_objects)
    stats.s_objects_total = len(s_objects)
    stats.r_objects_accessed = len(set().union(*(v.touched_r for v in verified)))
    stats.s_objects_accessed = len(set().union(*(v.touched_s for v in verified)))
    results = [row for v in verified for row in v.rows]
    results.sort(key=lambda row: (row[0], row[1]))
    return ParallelRun(
        results=results,
        stats=stats,
        wall_seconds=time.perf_counter() - start,
        workers=workers,
        partitions=len(verified),
        supervision=supervision,
    )


def run_find_relation_parallel(
    pipeline: Pipeline | str,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
    workers: int | None = None,
    partition_timeout: float | None = None,
    max_retries: int | None = None,
) -> ParallelRun:
    """Find-relation over ``pairs``, fanned out across ``workers``.

    Relation counts, per-pair outcomes and geometry-access accounting
    are identical for every worker count; ``results`` holds one
    :data:`~repro.join.pipeline.PairOutcome` per pair, sorted by
    ``(i, j)``. See :func:`_fan_out` for the in-process and supervision
    rules.
    """
    name = pipeline if isinstance(pipeline, str) else pipeline.name
    if name not in PIPELINES:
        raise KeyError(f"unknown pipeline {name!r}; available: {list(PIPELINES)}")
    return _fan_out(
        verify_find_relation, PIPELINES[name], "find", {"method": name},
        r_objects, s_objects, pairs, workers, partition_timeout, max_retries,
    )


def run_relate_parallel(
    predicate: TopologicalRelation,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
    workers: int | None = None,
    partition_timeout: float | None = None,
    max_retries: int | None = None,
) -> ParallelRun:
    """relate_p over ``pairs``, fanned out across ``workers``.

    Matching pairs (``results`` / ``matches``, sorted by ``(i, j)``) and
    counters are identical for every worker count.
    """
    return _fan_out(
        verify_relate, predicate, "relate", {"predicate": predicate.value},
        r_objects, s_objects, pairs, workers, partition_timeout, max_retries,
    )


__all__ = [
    "PARALLEL_MIN_PAIRS",
    "PairOutcome",
    "ParallelRun",
    "auto_mode",
    "default_workers",
    "fork_available",
    "resolve_workers",
    "run_find_relation_parallel",
    "run_relate_parallel",
]

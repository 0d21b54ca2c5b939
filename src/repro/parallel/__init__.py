"""Partitioned parallel execution (multiprocessing).

The paper's pipelines are embarrassingly parallel over candidate pairs,
and partition-based parallelism is the winning strategy for in-memory
spatial joins [39]. This package scales the three hot stages across
cores:

- :func:`run_find_relation_parallel` / :func:`run_relate_parallel` —
  cut the candidate-pair stream into contiguous chunks, run the one
  verification function of :mod:`repro.join.pipeline` on every chunk in
  supervised forked workers, merge deterministically in ``(i, j)``
  order.
- :func:`build_april_parallel` — fan out APRIL rasterisation, the
  dominant preprocessing cost, over the same chunks and workers.

``workers=1``, tiny inputs and platforms without ``fork`` are the
one-partition case of the same code, run in-process; every parallel
result is identical to it.
"""

from repro.parallel.chunking import CHUNKS_PER_WORKER, chunk_pairs
from repro.parallel.executor import (
    PairOutcome,
    ParallelRun,
    default_workers,
    fork_available,
    resolve_workers,
    run_find_relation_parallel,
    run_relate_parallel,
)
from repro.parallel.preprocess import build_april_parallel

__all__ = [
    "CHUNKS_PER_WORKER",
    "PairOutcome",
    "ParallelRun",
    "build_april_parallel",
    "chunk_pairs",
    "default_workers",
    "fork_available",
    "resolve_workers",
    "run_find_relation_parallel",
    "run_relate_parallel",
]

"""Supervised fan-out: a ``pool.map`` that survives its workers.

A bare ``Pool.map`` has three failure modes that all end the same way —
a join that never returns: a worker OOM-killed mid-task leaves its
result unresolved forever, a worker stuck in a pathological refinement
hangs the barrier, and a task whose result cannot travel the pipe
poisons the whole map call. :func:`supervised_map` replaces the barrier
with per-task supervision over
:class:`~repro.resilience.worker.SupervisedWorker` processes, each on
its own pipe:

- the parent hands every idle worker one task at a time, so it always
  knows which ``(task, attempt)`` each worker holds;
- every attempt gets its own **deadline** (``partition_timeout``
  seconds from the moment a worker receives it); a worker still busy at
  its deadline is SIGKILLed *then* and a fresh one forked in its place;
- a worker's **death is EOF on its pipe**: the wait that collects
  results wakes at once and fails exactly the task the dead worker
  held, without polling and without waiting out the deadline;
- failed tasks are **retried** with exponential backoff, at most
  ``max_retries`` times;
- tasks that exhaust their retries fall back to **in-parent serial
  re-execution** — slower but isolated from every worker pathology —
  so the merged result is complete for *any* failure schedule.

Recovery time is therefore bounded: a task costs at most
``(max_retries + 1) * partition_timeout`` plus its backoffs and one
serial re-run, whatever its workers do.

Tasks must be side-effect free (the executor's partition workers are
pure functions of inherited state). A failed attempt's worker is dead
before its retry starts, so every task is answered at most once, which
keeps per-worker metric payloads exactly-once.

Everything is observable: retries, timeouts, worker deaths and serial
fallbacks surface as ``repro_resilience_*`` counters (when metrics are
on) and are summarised in the returned :class:`SupervisionReport`.
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.trace import trace
from repro.resilience import failpoints
from repro.resilience.worker import (
    SupervisedWorker,
    WorkerDied,
    WorkerError,
    wait_readable,
)

log = logging.getLogger("repro.resilience")

#: Default per-attempt deadline. Generous — it is a hang backstop, not
#: a performance target — but finite, so no schedule blocks forever.
DEFAULT_PARTITION_TIMEOUT = 300.0
DEFAULT_MAX_RETRIES = 2
DEFAULT_BACKOFF = 0.05


@dataclass
class SupervisionReport:
    """What the supervisor had to do to complete one fan-out."""

    tasks: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    worker_errors: int = 0
    fallbacks: int = 0
    #: Task indexes that ended in the serial fallback.
    fallback_tasks: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.retries == 0 and self.fallbacks == 0

    def to_dict(self) -> dict:
        return {
            "tasks": self.tasks,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "worker_errors": self.worker_errors,
            "fallbacks": self.fallbacks,
            "fallback_tasks": list(self.fallback_tasks),
        }


def _observe(name: str, value: int = 1, **labels) -> None:
    if metrics_enabled():
        get_registry().inc(name, value, **labels)


def supervised_map(
    worker: Callable,
    task_count: int,
    *,
    workers: int,
    serial_runner: Callable[[int], object],
    stage: str,
    partition_timeout: float | None = None,
    max_retries: int | None = None,
    backoff: float = DEFAULT_BACKOFF,
) -> tuple[list, SupervisionReport]:
    """Run ``worker((index, attempt))`` for every task index, supervised.

    Returns ``(results, report)`` with ``results`` index-aligned —
    exactly what ``pool.map(worker, range(task_count))`` would return on
    a healthy pool, whatever the workers did. ``worker`` runs in forked
    children, which inherit it: a closure over the task's state works,
    and nothing but ``(index, attempt)`` and the result is pickled.
    ``serial_runner(index)`` is the in-parent fallback.
    """
    if partition_timeout is None:
        partition_timeout = DEFAULT_PARTITION_TIMEOUT
    if max_retries is None:
        max_retries = DEFAULT_MAX_RETRIES
    if partition_timeout <= 0:
        raise ValueError(f"partition_timeout must be positive, got {partition_timeout}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")

    report = SupervisionReport(tasks=task_count)
    results: list = [None] * task_count
    if task_count == 0:
        return results, report

    # Arm env-specified failpoints in the parent *before* the fork so
    # workers inherit both the sites and the parent's arming pid.
    failpoints._ensure_env_loaded()

    clock = time.monotonic
    #: ``(not-before time, index, attempt)``, soonest first: first
    #: attempts are due at once, retries when their backoff elapses.
    queue: list[tuple[float, int, int]] = [(0.0, k, 1) for k in range(task_count)]
    live: list[SupervisedWorker] = []
    idle: list[SupervisedWorker] = []
    #: worker -> the ``(index, attempt, deadline)`` it was handed.
    busy: dict[SupervisedWorker, tuple[int, int, float]] = {}

    def spawn() -> None:
        fresh = SupervisedWorker(
            worker, name=f"repro-{stage}-worker", siblings=live
        )
        live.append(fresh)
        idle.append(fresh)

    def replace(dead: SupervisedWorker) -> None:
        live.remove(dead)
        dead.kill()
        spawn()

    def fail(index: int, attempt: int, kind: str) -> None:
        if attempt > max_retries:
            report.fallbacks += 1
            report.fallback_tasks.append(index)
            _observe("repro_resilience_fallback_total", stage=stage)
            log.warning(
                "%s task %d failed attempt %d (%s); falling back to serial",
                stage, index, attempt, kind,
            )
        else:
            report.retries += 1
            delay = backoff * (2 ** (attempt - 1))
            heapq.heappush(queue, (clock() + delay, index, attempt + 1))
            _observe("repro_resilience_retry_total", stage=stage, kind=kind)
            log.warning(
                "%s task %d attempt %d failed (%s); retrying in %.3fs",
                stage, index, attempt, kind, delay,
            )

    try:
        for _ in range(min(workers, task_count)):
            spawn()
        while queue or busy:
            now = clock()
            while idle and queue and queue[0][0] <= now:
                _, index, attempt = heapq.heappop(queue)
                hand = idle.pop()
                hand.send((index, attempt))
                busy[hand] = (index, attempt, now + partition_timeout)
            # Sleep until a reply or a death is readable, the earliest
            # deadline passes, or a backoff an idle worker could take
            # elapses — whichever comes first.
            wake = [deadline for _, _, deadline in busy.values()]
            if idle and queue:
                wake.append(queue[0][0])
            for done in wait_readable(list(busy), max(0.0, min(wake) - now)):
                index, attempt, _ = busy.pop(done)
                try:
                    results[index] = done.recv()
                except WorkerError:
                    report.worker_errors += 1
                    fail(index, attempt, "error")
                except WorkerDied:
                    report.worker_deaths += 1
                    _observe("repro_resilience_worker_deaths_total", stage=stage)
                    fail(index, attempt, "death")
                    replace(done)
                    continue
                idle.append(done)
            now = clock()
            for hung, (index, attempt, deadline) in list(busy.items()):
                if now >= deadline:
                    del busy[hung]
                    report.timeouts += 1
                    fail(index, attempt, "timeout")
                    replace(hung)
    finally:
        for remaining in live:
            remaining.kill()

    for index in report.fallback_tasks:
        with trace("serial_fallback", stage=stage, task=index):
            results[index] = serial_runner(index)
    return results, report


__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_PARTITION_TIMEOUT",
    "SupervisionReport",
    "supervised_map",
]

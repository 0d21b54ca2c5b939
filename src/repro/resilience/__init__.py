"""repro.resilience — fault-tolerant execution for every layer.

The production north star is a system that survives the failures a
production system actually sees: OOM-killed fork workers, processes
crashing mid-persist, and dirty real-world input. This package is the
shared substrate the executor, preprocessing, store and dataset-loading
layers build their fault tolerance on:

- :mod:`repro.resilience.failpoints` — deterministic, seeded fault
  injection at named sites (``worker.crash``, ``worker.hang``,
  ``store.torn_write``, ``io.bad_row``), armed via API or the
  ``REPRO_FAILPOINTS`` environment variable, so every chaos schedule
  replays bit-identically.
- :mod:`repro.resilience.worker` — :class:`SupervisedWorker`, the one
  forked-child-on-a-private-pipe primitive (ready handshake, death as
  EOF, kill) under both the batch fan-out and the serving pool.
- :mod:`repro.resilience.supervisor` — :func:`supervised_map`, the
  ``pool.map`` replacement with per-task deadlines, dead-worker
  detection, bounded retries with backoff, and an in-parent serial
  fallback; completes with correct results for any failure schedule.
- :mod:`repro.resilience.atomic` — tmp + fsync + ``os.replace`` writes
  so store artifacts are never torn.
- :mod:`repro.resilience.quarantine` — typed reports for malformed
  input rows skipped by lenient dataset loads.

Every recovery action is surfaced through :mod:`repro.obs` as
``repro_resilience_*`` counters; see ``docs/robustness.md`` for the
failpoint catalogue and the degradation matrix.
"""

from repro._lazy import lazy_exports
from repro.resilience.atomic import atomic_write_bytes, atomic_write_text, atomic_writer
from repro.resilience.failpoints import (
    KNOWN_SITES,
    FailpointError,
    arm,
    armed,
    disarm,
    disarm_all,
    inject,
    load_env_spec,
    maybe_fail_worker,
    should_fire,
)
from repro.resilience.quarantine import QuarantinedRow, QuarantineReport

#: The fork machinery resolves on first read (PEP 562): a serial join
#: never forks, so it must not wait for ``multiprocessing``, ``socket``,
#: ``subprocess`` and ``selectors`` to load.
_LAZY = {
    **dict.fromkeys(
        ("DEFAULT_MAX_RETRIES", "DEFAULT_PARTITION_TIMEOUT", "SupervisionReport",
         "supervised_map"),
        "repro.resilience.supervisor",
    ),
    **dict.fromkeys(
        ("SupervisedWorker", "WorkerDied", "WorkerError"), "repro.resilience.worker"
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_PARTITION_TIMEOUT",
    "FailpointError",
    "KNOWN_SITES",
    "QuarantineReport",
    "QuarantinedRow",
    "SupervisedWorker",
    "SupervisionReport",
    "WorkerDied",
    "WorkerError",
    "arm",
    "armed",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "disarm",
    "disarm_all",
    "inject",
    "load_env_spec",
    "maybe_fail_worker",
    "should_fire",
    "supervised_map",
]

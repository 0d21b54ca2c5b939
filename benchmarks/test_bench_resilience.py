"""Supervised-pool overhead and recovery benchmark.

The fault-tolerant executor replaced the bare ``pool.map`` fan-out with
per-partition supervision (one task at a time over a private pipe per
worker, deadlines, retry bookkeeping).
This benchmark certifies that supervision is free when nothing fails:
the parallel/serial wall-clock ratio of a clean run must stay within
the acceptance bound of the comparable ``BENCH_parallel.json`` entries
— the trajectory recorded *by the unsupervised executor* before this
layer existed (compared only against entries with the same
``cpu_count``; absolute timings do not transfer between machines, but
the parallel/serial ratio of one process does).

A second measurement runs the same workload under a crash-every-first
-attempt failpoint schedule and records the bounded recovery cost.
Every run appends both to the ``BENCH_resilience.json`` trajectory.
"""

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.datasets import load_scenario
from repro.join.pipeline import run_find_relation
from repro.parallel import run_find_relation_parallel
from repro.resilience import failpoints

SCENARIO = "OBE-OPE"
SCALE = 5.0
GRID_ORDER = 10
WORKERS = 4
ROUNDS = 2

#: Acceptance bound for the supervised no-fault parallel/serial ratio
#: vs the median comparable pre-supervision entry.
NO_FAULT_REGRESSION_PCT = 5.0

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_resilience.json"
BASELINE_PATH = REPO_ROOT / "BENCH_parallel.json"


def record(entry: dict) -> None:
    from conftest import record_entry

    record_entry(BENCH_PATH, entry)


def comparable_baseline_ratios() -> list[float]:
    """parallel/serial ratios of comparable ``BENCH_parallel`` entries."""
    if not BASELINE_PATH.exists():
        return []
    return [
        e["parallel_seconds"] / e["serial_seconds"]
        for e in json.loads(BASELINE_PATH.read_text())
        if e.get("kind") == "find_relation"
        and e.get("scenario") == SCENARIO
        and e.get("scale") == SCALE
        and e.get("grid_order") == GRID_ORDER
        and e.get("workers") == WORKERS
        and e.get("cpu_count") == os.cpu_count()
        and e.get("serial_seconds")
    ]


@pytest.fixture(scope="module")
def scenario():
    data = load_scenario(SCENARIO, scale=SCALE, grid_order=GRID_ORDER)
    assert len(data.pairs) >= 5000, "benchmark needs a >=5k-pair stream"
    return data


def _timed_parallel(scenario):
    best, run = float("inf"), None
    for _ in range(ROUNDS):
        run = run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs,
            workers=WORKERS,
        )
        best = min(best, run.wall_seconds)
    return best, run


def test_supervised_no_fault_overhead(scenario):
    failpoints.disarm_all()
    serial_seconds = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        serial = run_find_relation(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs
        )
        serial_seconds = min(serial_seconds, time.perf_counter() - t0)

    parallel_seconds, run = _timed_parallel(scenario)

    # Supervision never changes results, and a fault-free run is clean.
    assert run.stats.relation_counts == serial.relation_counts
    assert run.stats.pairs == serial.pairs == len(scenario.pairs)
    assert run.supervision.clean

    ratio = parallel_seconds / serial_seconds
    baselines = comparable_baseline_ratios()
    baseline_ratio = statistics.median(baselines) if baselines else None
    regression_pct = (
        100.0 * (ratio / baseline_ratio - 1.0) if baseline_ratio else None
    )

    record(
        {
            "kind": "supervised_no_fault",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scenario": SCENARIO,
            "scale": SCALE,
            "grid_order": GRID_ORDER,
            "pairs": len(scenario.pairs),
            "workers": WORKERS,
            "cpu_count": os.cpu_count(),
            "serial_seconds": round(serial_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
            "ratio": round(ratio, 4),
            "baseline_ratio": round(baseline_ratio, 4) if baseline_ratio else None,
            "regression_pct": round(regression_pct, 2)
            if regression_pct is not None
            else None,
        }
    )

    if baseline_ratio is not None:
        assert regression_pct < NO_FAULT_REGRESSION_PCT, (
            f"supervised no-fault ratio {ratio:.3f} regresses "
            f"{regression_pct:.1f}% vs median pre-supervision ratio "
            f"{baseline_ratio:.3f} (bound {NO_FAULT_REGRESSION_PCT}%)"
        )


def test_recovery_cost_is_bounded(scenario):
    clean_seconds, clean = _timed_parallel(scenario)

    with failpoints.inject({"worker.crash": "times:1"}):
        t0 = time.perf_counter()
        chaotic = run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs,
            workers=WORKERS, partition_timeout=60.0, max_retries=2,
        )
        chaos_seconds = time.perf_counter() - t0

    assert chaotic.results == clean.results
    assert chaotic.supervision.worker_deaths == chaotic.partitions
    assert chaotic.supervision.fallbacks == 0

    record(
        {
            "kind": "chaos_recovery",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scenario": SCENARIO,
            "scale": SCALE,
            "grid_order": GRID_ORDER,
            "pairs": len(scenario.pairs),
            "workers": WORKERS,
            "partitions": chaotic.partitions,
            "cpu_count": os.cpu_count(),
            "schedule": "worker.crash=times:1",
            "clean_seconds": round(clean_seconds, 4),
            "chaos_seconds": round(chaos_seconds, 4),
            "recovery_overhead": round(chaos_seconds / clean_seconds, 3),
        }
    )

    # Every partition died once and was retried; the recovery cost must
    # stay within a small multiple of the clean run, not a timeout-wait.
    assert chaos_seconds < 10.0 * clean_seconds + 5.0

"""Micro-benchmarks for the vectorised APRIL kernels.

Times every hot-path primitive — the Sec. 3.2 interval relations, the
interval set operations, Hilbert bulk indexing and polygon
rasterisation — against its scalar oracle (``tests/oracles``), plus the end-to-end
serial and parallel join wall-clock, and appends the measurements to the
``BENCH_kernels.json`` trajectory at the repo root.

Workload note: ``overlaps`` is timed on *interleaved disjoint* lists.
On overlapping lists the reference loop exits at the first hit, which
would flatter the comparison; interleaved lists force both
implementations to examine every interval.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_scenario
from repro.geometry import Box, Polygon
from repro.join.pipeline import run_find_relation
from repro.parallel import run_find_relation_parallel
from repro.raster import RasterGrid, rasterize_polygon
from repro.raster import kernels
from repro.raster.hilbert import hilbert_xy2d_bulk
from repro.raster.intervals import IntervalList

from tests.oracles import hilbert as oracle_hilbert
from tests.oracles import intervals as oracle_intervals
from tests.oracles import rasterize as oracle_rasterize

SIZES = (64, 1024, 16384)
#: Floor demanded of the vectorised overlaps/inside relations.
MIN_RELATION_SPEEDUP = 5.0

SCENARIO = "OBE-OPE"
SCALE = 5.0
GRID_ORDER = 10
WORKERS = 4
ROUNDS = 2

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"
PARALLEL_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"


def record(entry: dict) -> None:
    from conftest import record_entry

    record_entry(BENCH_PATH, entry)


def best_seconds(fn, target=0.1, rounds=3) -> float:
    """Best-of-``rounds`` per-call seconds, calibrated to ``target``."""
    fn()  # warm-up (also JIT-populates e.g. the Hilbert chunk tables)
    t0 = time.perf_counter()
    fn()
    estimate = time.perf_counter() - t0
    reps = max(1, min(20000, int(target / max(estimate, 1e-7))))
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _workloads(n: int) -> dict[str, IntervalList]:
    k = np.arange(n)
    return {
        # Interleaved single-cell lists: zero overlap, full scans.
        "x": IntervalList(list(zip(4 * k, 4 * k + 1))),
        "y": IntervalList(list(zip(4 * k + 2, 4 * k + 3))),
        # Wide list covering every x interval (inside == True worst case).
        "cover": IntervalList(list(zip(4 * k, 4 * k + 2))),
    }


@pytest.mark.parametrize("n", SIZES)
def test_interval_primitives(n):
    w = _workloads(n)
    x, y, cover = w["x"], w["y"], w["cover"]
    cases = {
        "overlaps": (
            lambda: kernels.overlaps(x.starts, x.ends, y.starts, y.ends),
            lambda: oracle_intervals.overlaps(x, y),
        ),
        "inside": (
            lambda: kernels.inside(x.starts, x.ends, cover.starts, cover.ends),
            lambda: oracle_intervals.inside(x, cover),
        ),
        "matches": (
            lambda: kernels.matches(x.starts, x.ends, x.starts, x.ends),
            lambda: oracle_intervals.matches(x, x),
        ),
        "intersection": (
            lambda: kernels.intersection(
                x.starts, x.ends, cover.starts, cover.ends
            ),
            lambda: oracle_intervals.intersection(x, cover),
        ),
        "union": (
            lambda: kernels.union(x.starts, x.ends, y.starts, y.ends),
            lambda: oracle_intervals.union(x, y),
        ),
        "difference": (
            lambda: kernels.difference(x.starts, x.ends, y.starts, y.ends),
            lambda: oracle_intervals.difference(x, y),
        ),
    }
    entry = {
        "kind": "primitives",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "intervals": n,
        "cpu_count": os.cpu_count(),
        "primitives": {},
    }
    for name, (fast_fn, ref_fn) in cases.items():
        fast = best_seconds(fast_fn)
        ref = best_seconds(ref_fn)
        entry["primitives"][name] = {
            "fast_us": round(fast * 1e6, 3),
            "reference_us": round(ref * 1e6, 3),
            "speedup": round(ref / fast, 2),
        }
    record(entry)
    for name in ("overlaps", "inside"):
        assert entry["primitives"][name]["speedup"] >= MIN_RELATION_SPEEDUP, (
            f"{name} speedup at n={n} below {MIN_RELATION_SPEEDUP}x: "
            f"{entry['primitives'][name]}"
        )


def test_batched_overlaps():
    """One-probe-vs-many form against a per-pair kernel loop."""
    groups = 256
    probe = _workloads(64)["x"]
    rng = np.random.default_rng(1)
    lists = []
    for _ in range(groups):
        cells = rng.integers(0, 1024, size=64)
        lists.append(IntervalList.from_cells(cells))
    cat_s, cat_e, offsets = kernels.pack_lists(lists)

    fast = best_seconds(
        lambda: kernels.overlaps_batch(
            probe.starts, probe.ends, cat_s, cat_e, offsets
        )
    )
    per_pair = best_seconds(
        lambda: [
            kernels.overlaps(probe.starts, probe.ends, il.starts, il.ends)
            for il in lists
        ]
    )
    record(
        {
            "kind": "batch",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "groups": groups,
            "intervals_per_list": 64,
            "batch_us": round(fast * 1e6, 3),
            "per_pair_us": round(per_pair * 1e6, 3),
            "speedup": round(per_pair / fast, 2),
        }
    )
    assert per_pair / fast > 1.0


def test_hilbert_bulk():
    order = 16
    rng = np.random.default_rng(2)
    xs = rng.integers(0, 1 << order, size=65536)
    ys = rng.integers(0, 1 << order, size=65536)
    fast = best_seconds(lambda: hilbert_xy2d_bulk(order, xs, ys))
    ref = best_seconds(
        lambda: oracle_hilbert.hilbert_xy2d_bulk(order, xs.copy(), ys.copy())
    )
    record(
        {
            "kind": "hilbert",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "order": order,
            "points": int(xs.size),
            "fast_ms": round(fast * 1e3, 4),
            "reference_ms": round(ref * 1e3, 4),
            "speedup": round(ref / fast, 2),
        }
    )


def _blob(n: int, radius: float, cx: float, cy: float) -> Polygon:
    pts = []
    for k in range(n):
        a = 2 * math.pi * k / n
        r = radius * (1 + 0.25 * math.sin(5 * a))
        pts.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return Polygon(pts)


def test_rasterize():
    grid = RasterGrid(Box(0, 0, 1000, 1000), order=GRID_ORDER)
    polygon = _blob(64, radius=320.0, cx=500.0, cy=500.0)

    fast = best_seconds(lambda: rasterize_polygon(polygon, grid), target=0.4)
    ref = best_seconds(
        lambda: oracle_rasterize.rasterize_polygon(polygon, grid), target=0.4
    )
    record(
        {
            "kind": "rasterize",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "grid_order": GRID_ORDER,
            "vertices": polygon.num_vertices,
            "fast_ms": round(fast * 1e3, 4),
            "reference_ms": round(ref * 1e3, 4),
            "speedup": round(ref / fast, 2),
        }
    )


def test_end_to_end_join():
    """Serial + parallel find-relation wall clock with the vectorised
    kernels, checked against the PR 1 baseline in BENCH_parallel.json."""
    data = load_scenario(SCENARIO, scale=SCALE, grid_order=GRID_ORDER)

    serial_seconds = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        serial = run_find_relation(
            "P+C", data.r_objects, data.s_objects, data.pairs
        )
        serial_seconds = min(serial_seconds, time.perf_counter() - t0)

    parallel_seconds = float("inf")
    for _ in range(ROUNDS):
        run = run_find_relation_parallel(
            "P+C", data.r_objects, data.s_objects, data.pairs, workers=WORKERS
        )
        parallel_seconds = min(parallel_seconds, run.wall_seconds)
    assert run.stats.relation_counts == serial.relation_counts

    baseline = None
    if PARALLEL_BENCH_PATH.exists():
        entries = [
            e
            for e in json.loads(PARALLEL_BENCH_PATH.read_text())
            if e.get("kind") == "find_relation" and e.get("scale") == SCALE
        ]
        if entries:
            baseline = entries[-1]["serial_seconds"]

    record(
        {
            "kind": "end_to_end",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scenario": SCENARIO,
            "scale": SCALE,
            "grid_order": GRID_ORDER,
            "pairs": len(data.pairs),
            "workers": WORKERS,
            "cpu_count": os.cpu_count(),
            "serial_seconds": round(serial_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
            "baseline_serial_seconds": baseline,
            "serial_vs_baseline": (
                round(serial_seconds / baseline, 3) if baseline else None
            ),
        }
    )
    if baseline is not None:
        # The vectorised kernels must not regress the end-to-end join
        # (10% head-room for timer noise across runs).
        assert serial_seconds <= 1.10 * baseline

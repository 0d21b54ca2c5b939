"""Adaptive auto-mode benchmark: is the cost model's pick actually best?

Calibrates a live cost model on this machine, then runs the same
warm-cache engine join under every explicit in-memory mode and under
``mode="auto"``, asserting that (a) auto returns bit-identical rows to
the mode it selected, (b) on a single-core box the decision is serial
— the uninformed workers-based rule would have picked the 0.75×
parallel path — and (c) auto's wall time lands within 5% of the best
explicitly-measured mode. Every run appends an entry to the
``BENCH_adaptive.json`` trajectory at the repo root.
"""

import os
import time
from pathlib import Path

import pytest

from repro.datasets import load_scenario
from repro.optimizer import CostModel
from repro.optimizer.calibrate import measure_profile
from repro.store import Engine

SCENARIO = "OBE-OPE"
SCALE = 5.0
GRID_ORDER = 10
WORKERS = 4
ROUNDS = 3

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_adaptive.json"


def record(entry: dict) -> None:
    from conftest import record_entry

    record_entry(BENCH_PATH, entry)


def _rows(run):
    return [(l.r_index, l.s_index, l.relation) for l in run.results]


@pytest.fixture(scope="module")
def polygons():
    data = load_scenario(SCENARIO, scale=SCALE, grid_order=GRID_ORDER)
    assert len(data.pairs) >= 5000, "benchmark needs a >=5k-pair stream"
    return (
        [o.polygon for o in data.r_objects],
        [o.polygon for o in data.s_objects],
    )


def test_auto_mode_tracks_best_measured_mode(polygons):
    r_polys, s_polys = polygons
    profile = measure_profile(repeats=1, scale=0.5)
    engine = Engine(calibration=profile)
    rd, sd = engine.dataset(r_polys), engine.dataset(s_polys)

    # One warm-up join attaches APRIL payloads and fills the pair
    # cache, so every timed run below measures verification only.
    engine.join(rd, sd, grid_order=GRID_ORDER, mode="serial")

    def best_of(mode: str, *, workers: int = 1):
        best_run, best_seconds = None, float("inf")
        for _ in range(ROUNDS):
            run = engine.join(
                rd, sd, grid_order=GRID_ORDER, mode=mode, workers=workers
            )
            if run.wall_seconds < best_seconds:
                best_run, best_seconds = run, run.wall_seconds
        return best_run, best_seconds

    serial_run, serial_seconds = best_of("serial")
    parallel_run, parallel_seconds = best_of("parallel", workers=WORKERS)
    auto_run, auto_seconds = best_of("auto", workers=WORKERS)

    measured = {
        "serial": serial_seconds,
        "parallel": parallel_seconds,
    }
    decision = auto_run.meta["cost_model"]
    assert decision["source"] == "calibration"
    assert auto_run.mode == decision["decision"]

    # Auto must be indistinguishable from the mode it picked.
    assert _rows(auto_run) == _rows(serial_run) == _rows(parallel_run)

    cpu = os.cpu_count() or 1
    if cpu == 1:
        # The whole point of the PR: one core means parallel is pure
        # overhead, and a calibrated auto must not fall for it.
        assert decision["decision"] == "serial"

    best_mode = min(measured, key=measured.get)
    best_seconds = measured[best_mode]
    record(
        {
            "kind": "adaptive_auto",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scenario": SCENARIO,
            "scale": SCALE,
            "grid_order": GRID_ORDER,
            "pairs": auto_run.stats.pairs,
            "workers": WORKERS,
            "cpu_count": cpu,
            "decision": decision["decision"],
            "predicted_seconds": decision.get("predicted_seconds", {}),
            "auto_seconds": round(auto_seconds, 4),
            "best_mode": best_mode,
            **{f"{m}_seconds": round(s, 4) for m, s in measured.items()},
        }
    )
    # Acceptance: auto within 5% of the best recorded mode (epsilon
    # absorbs sub-millisecond scheduler noise on tiny wall times).
    assert auto_seconds <= best_seconds * 1.05 + 0.02, (
        f"auto picked {decision['decision']} ({auto_seconds:.4f}s) but "
        f"{best_mode} measured {best_seconds:.4f}s"
    )


def test_bench_seeded_model_routes_single_core_to_serial():
    """The recorded trajectory alone (no live calibration) must already
    steer a 1-core machine away from the parallel path."""
    from repro.optimizer import CalibrationError, CalibrationProfile
    from repro.optimizer.cost import JoinFeatures

    root = BENCH_PATH.parent
    try:
        profile = CalibrationProfile.seed_from_bench(root)
    except CalibrationError:
        pytest.skip("no BENCH_parallel.json trajectory recorded yet")
    cpu = os.cpu_count() or 1
    model = CostModel(profile)
    decision = model.decide(
        JoinFeatures(
            r_count=1000, s_count=1000, pairs=7000.0, workers=4, cpu_count=cpu
        )
    )
    sample = [s for s in profile.samples if s["mode"] == "parallel"]
    serial = [s for s in profile.samples if s["mode"] == "serial"]
    if cpu == 1 and sample and serial and sample[0]["seconds"] > serial[0]["seconds"]:
        assert decision.mode == "serial"

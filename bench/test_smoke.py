"""Smoke test of the benchmark itself (outside ``testpaths``; run with
``python -m pytest bench/test_smoke.py``, about two minutes)."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke() -> dict:
    proc = run("--smoke")
    assert proc.returncode == 0, proc.stdout[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_declared_metric_is_printed_for_every_workload(smoke):
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    assert smoke["correct"] and smoke["failed"] == 0 and smoke["attempted"] >= 1
    for workload in SPEC["workloads"]:
        metrics = smoke["metrics"][workload["name"]]
        assert set(metrics) == {spec["name"] for spec in declared}
        for spec in declared:
            metric = metrics[spec["name"]]
            assert metric["unit"] == spec["unit"], spec["name"]
            assert isinstance(metric["value"], (int, float)), spec["name"]
            assert math.isfinite(metric["value"]), spec["name"]


def test_names_fit_the_contract():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_benchmark_json_and_recipes_agree():
    sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
    from workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert SPEC["paths"] == [BENCH.name]


def test_flipped_digest_is_detected():
    assert run("--self-test").returncode == 0

"""``mode="auto"`` is one rule: ``parallel`` iff more than one worker can
run at once and the pair stream reaches ``PARALLEL_MIN_PAIRS``."""

import os

import numpy as np
import pytest

import repro.parallel.executor as executor
from repro.datasets.synthetic import generate_blobs, generate_tessellation
from repro.geometry import Box
from repro.parallel.executor import PARALLEL_MIN_PAIRS, auto_mode
from repro.store import Engine

#: (workers, cpu_count) combinations that fork at the break-even; every
#: other cell of the table — and every cell below it — stays serial.
FORKS = {(None, 2), (None, 8), (2, 2), (2, 8), (8, 2), (8, 8)}


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("workers", [None, 1, 2, 8])
def test_rule_table(monkeypatch, workers, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert auto_mode(workers, PARALLEL_MIN_PAIRS - 1) == "serial"
    expected = "parallel" if (workers, cpus) in FORKS else "serial"
    assert auto_mode(workers, PARALLEL_MIN_PAIRS) == expected


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(33)
    region = Box(0, 0, 300, 300)
    districts = generate_tessellation(rng, region, 3, 3, edge_points=8)
    blobs = generate_blobs(rng, 25, region, (3, 25), (8, 50))
    return districts, blobs


def _rows(run):
    return [(l.r_index, l.s_index, l.relation, l.filtered) for l in run.results]


class TestEngineAuto:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_join_and_execute_agree_on_both_sides(self, inputs, monkeypatch):
        districts, blobs = inputs
        engine = Engine()
        rd, sd = engine.dataset(districts), engine.dataset(blobs)
        grid = engine.join_grid(rd, sd, 9)
        r_objects, s_objects = engine.objects(rd, grid), engine.objects(sd, grid)
        pairs = engine.pairs(rd, sd)
        for threshold, expected in (
            (len(pairs) + 1, "serial"),
            (len(pairs), "parallel"),
        ):
            monkeypatch.setattr(executor, "PARALLEL_MIN_PAIRS", threshold)
            joined = engine.join(rd, sd, grid_order=9, workers=2)
            executed = engine.execute("P+C", r_objects, s_objects, pairs, workers=2)
            assert joined.mode == executed.mode == expected
            assert joined.stats.pairs == executed.stats.pairs == len(pairs)
            assert _rows(joined) == _rows(executed)

    def test_auto_rows_match_explicit_modes(self, inputs, monkeypatch):
        districts, blobs = inputs
        engine = Engine()
        serial = engine.join(districts, blobs, grid_order=9, mode="serial")
        parallel = engine.join(
            districts, blobs, grid_order=9, mode="parallel", workers=2
        )
        assert (serial.mode, parallel.mode) == ("serial", "parallel")
        below = engine.join(districts, blobs, grid_order=9, workers=2)
        monkeypatch.setattr(executor, "PARALLEL_MIN_PAIRS", 1)
        above = engine.join(districts, blobs, grid_order=9, workers=2)
        assert (below.mode, above.mode) == ("serial", "parallel")
        assert _rows(below) == _rows(serial) == _rows(parallel) == _rows(above)
        assert "cost_model" not in above.meta

    def test_workers_none_resolves_before_mode_choice(self, inputs, monkeypatch):
        districts, blobs = inputs
        monkeypatch.setattr(executor, "PARALLEL_MIN_PAIRS", 1)
        monkeypatch.setattr(executor, "default_workers", lambda: 1)
        run = Engine().join(districts, blobs, grid_order=9, workers=None)
        assert run.mode == "serial"
        monkeypatch.setattr(executor, "default_workers", lambda: 3)
        run = Engine().join(districts, blobs, grid_order=9, workers=None)
        assert (run.mode, run.workers) == ("parallel", 3)

    def test_calibration_keyword_is_gone(self):
        with pytest.raises(TypeError):
            Engine(calibration="auto")

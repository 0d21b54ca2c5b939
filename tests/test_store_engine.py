"""Tests for the warm-cache join engine (modes, LRU bounds, warm path)."""

import numpy as np
import pytest

from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs, generate_tessellation
from repro.geometry import Box, Polygon
from repro.join.run import JoinRun
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.store import Engine, build_dataset
from repro.store.engine import _LRU
from repro.topology import TopologicalRelation as T


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(21)
    region = Box(0, 0, 300, 300)
    districts = generate_tessellation(rng, region, 3, 3, edge_points=8)
    blobs = generate_blobs(rng, 30, region, (3, 25), (8, 50))
    return districts, blobs


def _rows(run: JoinRun):
    return [(l.r_index, l.s_index, l.relation, l.filtered) for l in run.results]


def _identity(run: JoinRun):
    """Everything that must not depend on how a join was executed."""
    stats = run.stats
    return (
        _rows(run),
        stats.relation_counts,
        stats.refined,
        stats.r_objects_accessed,
        stats.s_objects_accessed,
    )


class TestModes:
    @pytest.mark.parametrize("method", ["ST2", "OP2", "APRIL", "P+C"])
    def test_all_modes_agree(self, inputs, method):
        districts, blobs = inputs
        engine = Engine()

        def join(mode, **kwargs):
            return engine.join(
                districts, blobs, grid_order=9, method=method, mode=mode, **kwargs
            )

        serial = join("serial")
        runs = {
            "batch": join("batch"),
            "parallel": join("parallel", workers=2),
        }
        for name, run in runs.items():
            assert _identity(run) == _identity(serial), (method, name)
        # ``mode`` reports what ran: batch is an alias of serial.
        assert serial.mode == runs["batch"].mode == "serial"
        assert runs["parallel"].mode == "parallel"
        assert {type(r) for r in runs.values()} == {JoinRun}

    def test_relate_modes_agree(self, inputs):
        districts, blobs = inputs
        engine = Engine()

        def join(mode, **kwargs):
            return engine.join(
                districts, blobs, grid_order=9, predicate=T.INTERSECTS, mode=mode,
                **kwargs,
            )

        serial = join("serial")
        assert serial.results and serial.stats.refined
        for run in (join("batch"), join("parallel", workers=2)):
            assert _identity(run) == _identity(serial)
            assert run.stats.resolved_if == serial.stats.resolved_if

    def test_envelope_unpacks(self, inputs):
        districts, blobs = inputs
        run = Engine().join(districts, blobs, grid_order=9)
        results, stats = run
        assert results == run.results
        assert stats is run.stats
        assert len(run) == len(run.results)
        assert run.to_dict()["links"] == len(run.results)

    def test_relate_mode(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        run = engine.join(districts, blobs, grid_order=9, predicate=T.CONTAINS)
        assert run.kind == "relate"
        matches, stats = run
        assert matches == run.matches
        find = engine.join(districts, blobs, grid_order=9)
        expected = [
            (l.r_index, l.s_index) for l in find.results if l.relation is T.CONTAINS
        ]
        assert matches == expected

    def test_auto_mode_follows_workers(self, inputs, monkeypatch):
        # auto forks only when workers > 1 can run at once *and* the
        # join is past the pool break-even; this fixture is far below.
        import os

        import repro.parallel.executor as executor

        districts, blobs = inputs
        engine = Engine()
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert engine.join(districts, blobs, grid_order=9).mode == "serial"
        assert engine.join(districts, blobs, grid_order=9, workers=2).mode == "serial"
        monkeypatch.setattr(executor, "PARALLEL_MIN_PAIRS", 1)
        assert engine.join(districts, blobs, grid_order=9).mode == "serial"
        assert (
            engine.join(districts, blobs, grid_order=9, workers=2).mode == "parallel"
        )

    def test_execute_rejects_disk_and_unknown_modes(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        rd, sd = engine.dataset(districts), engine.dataset(blobs)
        grid = engine.join_grid(rd, sd, 9)
        r_objects = engine.objects(rd, grid)
        s_objects = engine.objects(sd, grid)
        pairs = engine.pairs(rd, sd)
        for mode in ("disk", "turbo"):
            with pytest.raises(ValueError, match=mode):
                engine.execute("P+C", r_objects, s_objects, pairs, mode=mode)

    def test_unknown_mode_rejected(self, inputs):
        districts, blobs = inputs
        with pytest.raises(ValueError, match="mode"):
            Engine().join(districts, blobs, grid_order=9, mode="turbo")

    def test_partitioning_options_are_gone(self, inputs):
        # One splitter: contiguous chunks, nothing to choose.
        districts, blobs = inputs
        engine = Engine()
        for option in ({"partition": "tiles"}, {"chunk_size": 3}):
            with pytest.raises(TypeError):
                engine.join(districts, blobs, grid_order=9, **option)
        for option in ({"partition": "chunks"}, {"chunk_size": 3}, {"tiles_per_dim": 4}):
            with pytest.raises(TypeError):
                engine.execute("P+C", [], [], [], **option)

    def test_disk_mode_is_gone(self, inputs):
        # ``Engine.join`` is the one whole-dataset join: no disk spill,
        # and none of its keywords.
        districts, blobs = inputs
        engine = Engine()
        for predicate in (None, T.CONTAINS):
            with pytest.raises(ValueError, match="disk"):
                engine.join(
                    districts, blobs, grid_order=9, mode="disk", predicate=predicate
                )
        for option in ({"tiles_per_dim": 4}, {"workdir": "tiles"}):
            with pytest.raises(TypeError):
                engine.join(districts, blobs, grid_order=9, **option)


class TestLRU:
    def test_eviction_bounds(self):
        lru = _LRU(2, "test")
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert len(lru) == 2
        assert lru.get("a") is None  # evicted, oldest first
        assert lru.get("b") == 2 and lru.get("c") == 3

    def test_access_refreshes_recency(self):
        lru = _LRU(2, "test")
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")
        lru.put("c", 3)  # evicts b, not the freshly used a
        assert lru.get("a") == 1
        assert lru.get("b") is None

    def test_engine_object_cache_bounded(self, inputs):
        districts, _ = inputs
        engine = Engine(max_object_sets=2)
        for order in (7, 8, 9):
            d = engine.dataset(districts)
            engine.objects(d, d.grid(order))
        assert len(engine._objects) == 2


class TestContentInvalidation:
    def test_mutated_file_is_cache_miss(self, inputs, tmp_path):
        districts, _ = inputs
        path = tmp_path / "data.wkt"
        save_wkt_file(path, districts)
        engine = Engine()
        first = engine.dataset(path)
        assert engine.dataset(path) is first  # unchanged bytes: cache hit
        with path.open("a") as fh:
            fh.write("POLYGON ((900 900, 910 900, 910 910, 900 910, 900 900))\n")
        rebuilt = engine.dataset(path)
        assert rebuilt is not first
        assert len(rebuilt) == len(first) + 1
        assert rebuilt.content_hash != first.content_hash


class TestWarmPath:
    def _export(self, tmp_path, inputs):
        districts, blobs = inputs
        r_file = tmp_path / "r.wkt"
        s_file = tmp_path / "s.wkt"
        save_wkt_file(r_file, districts)
        save_wkt_file(s_file, blobs)
        build_dataset(r_file, tmp_path / "r_idx", grid_order=None)
        build_dataset(s_file, tmp_path / "s_idx", grid_order=None)
        return tmp_path / "r_idx", tmp_path / "s_idx"

    def _built_count(self):
        return sum(
            c["value"]
            for c in get_registry().to_dict()["counters"]
            if c["name"] == "repro_april_built_total"
        )

    def test_warm_join_skips_rasterisation(self, inputs, tmp_path):
        r_idx, s_idx = self._export(tmp_path, inputs)
        set_metrics(True)
        try:
            reset_metrics()
            cold = Engine().join(r_idx, s_idx, grid_order=9)
            assert self._built_count() > 0  # cold run rasterised

            reset_metrics()
            # Fresh engine = fresh process analogue: everything must
            # come from the persisted payloads.
            warm = Engine().join(r_idx, s_idx, grid_order=9)
            assert self._built_count() == 0
        finally:
            set_metrics(False)
        assert _rows(warm) == _rows(cold)

    def test_warm_results_identical_across_modes(self, inputs, tmp_path):
        r_idx, s_idx = self._export(tmp_path, inputs)
        cold = Engine().join(r_idx, s_idx, grid_order=9)
        engine = Engine()
        for mode, kwargs in (
            ("serial", {}),
            ("batch", {}),
            ("parallel", {"workers": 2}),
        ):
            warm = engine.join(r_idx, s_idx, grid_order=9, mode=mode, **kwargs)
            assert _rows(warm) == _rows(cold), mode

    def test_explain_uses_cached_objects(self, inputs, tmp_path):
        r_idx, s_idx = self._export(tmp_path, inputs)
        engine = Engine()
        run = engine.join(r_idx, s_idx, grid_order=9)
        i, j = run.results[0].r_index, run.results[0].s_index
        set_metrics(True)
        try:
            reset_metrics()
            text = engine.explain(r_idx, s_idx, i, j, grid_order=9).render()
            assert self._built_count() == 0  # served from the warm cache
        finally:
            set_metrics(False)
        assert text

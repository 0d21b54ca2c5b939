"""Tests for the repro.parallel package: executor, chunking, preprocessing."""

import numpy as np
import pytest

from repro.datasets import load_scenario
from repro.datasets.synthetic import generate_blobs, generate_tessellation
from repro.geometry import Box
from repro.join.pipeline import run_find_relation, run_relate
from repro.join.stats import JoinRunStats
from repro.parallel import (
    build_april_parallel,
    chunk_pairs,
    run_find_relation_parallel,
    run_relate_parallel,
)
from repro.raster import build_april
from repro.store import Engine
from repro.topology import TopologicalRelation as T


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("OLE-OPE", scale=0.3, grid_order=10)


class TestChunking:
    def test_chunks_cover_stream_in_order(self):
        pairs = [(i, i + 1) for i in range(37)]
        chunks = chunk_pairs(pairs, workers=4)
        assert [p for c in chunks for p in c] == pairs

    def test_empty_stream(self):
        assert chunk_pairs([], workers=4) == []

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            chunk_pairs([(0, 0)], workers=0)


class TestFindRelationParallel:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_matches_serial_run(self, scenario, workers):
        run = run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs,
            workers=workers,
        )
        serial = run_find_relation(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs
        )
        assert run.stats.pairs == serial.pairs
        assert run.stats.relation_counts == serial.relation_counts
        assert run.stats.refined == serial.refined
        assert run.stats.resolved_mbr == serial.resolved_mbr
        assert run.stats.resolved_if == serial.resolved_if
        assert run.stats.r_objects_accessed == serial.r_objects_accessed
        assert run.stats.s_objects_accessed == serial.s_objects_accessed
        # Nothing failed, so supervision (None when nothing was forked)
        # has no retry, death, timeout or fallback to report.
        assert run.supervision is None or run.supervision.clean
        assert run.wall_seconds > 0

    def test_results_deterministic_across_configurations(self, scenario):
        args = (scenario.r_objects, scenario.s_objects, scenario.pairs)
        baseline = run_find_relation_parallel("P+C", *args, workers=1).results
        assert baseline == sorted(baseline, key=lambda t: (t[0], t[1]))
        assert len(baseline) == len(scenario.pairs)
        for variant in (
            run_find_relation_parallel("P+C", *args, workers=2),
            run_find_relation_parallel("P+C", *args, workers=4),
        ):
            assert variant.results == baseline

    def test_unknown_partition_rejected(self, scenario):
        # Contiguous chunks are the one way to split: there is no
        # partitioning option left to pass.
        for option in ({"partition": "tiles"}, {"chunk_size": 3}, {"tiles_per_dim": 4}):
            with pytest.raises(TypeError):
                run_find_relation_parallel(
                    "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs,
                    workers=2, **option,
                )

    def test_unknown_pipeline_rejected(self, scenario):
        with pytest.raises(KeyError):
            run_find_relation_parallel(
                "NOPE", scenario.r_objects, scenario.s_objects, scenario.pairs
            )


class TestRelateParallel:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_matches_serial_run(self, scenario, workers):
        run = run_relate_parallel(
            T.INSIDE, scenario.r_objects, scenario.s_objects, scenario.pairs,
            workers=workers,
        )
        serial = run_relate(
            T.INSIDE, scenario.r_objects, scenario.s_objects, scenario.pairs
        )
        assert run.stats.pairs == serial.pairs
        assert run.stats.refined == serial.refined
        assert run.stats.relation_counts == serial.relation_counts
        assert len(run.matches) == serial.relation_counts[T.INSIDE]
        assert run.matches == sorted(run.matches)

    def test_matches_identical_across_worker_counts(self, scenario):
        args = (scenario.r_objects, scenario.s_objects, scenario.pairs)
        baseline = run_relate_parallel(T.INTERSECTS, *args, workers=1).matches
        assert run_relate_parallel(T.INTERSECTS, *args, workers=4).matches == baseline


class TestBuildAprilParallel:
    def test_identical_to_serial(self, scenario):
        polygons = [o.polygon for o in scenario.r_objects[:24]]
        serial = [build_april(p, scenario.grid) for p in polygons]
        for workers in (1, 2, 4):
            parallel = build_april_parallel(polygons, scenario.grid, workers=workers)
            assert len(parallel) == len(serial)
            for a, b in zip(serial, parallel):
                assert a.p == b.p and a.c == b.c

    def test_small_input_stays_serial(self, scenario):
        polygons = [o.polygon for o in scenario.r_objects[:2]]
        approx = build_april_parallel(polygons, scenario.grid, workers=4)
        assert len(approx) == 2


class TestStatsMerge:
    def test_variadic_merge_sums_parts(self):
        parts = []
        for k in range(3):
            st = JoinRunStats(method="P+C")
            st.pairs = 5 + k
            st.refined = k
            st.filter_seconds = 0.5
            st.relation_counts[T.INSIDE] = k + 1
            parts.append(st)
        merged = parts[0].merge(*parts[1:])
        assert merged.pairs == 18
        assert merged.refined == 3
        assert merged.relation_counts[T.INSIDE] == 6
        assert merged.filter_seconds == pytest.approx(1.5)

    def test_zero_argument_merge_copies(self):
        st = JoinRunStats(method="ST2")
        st.pairs = 7
        clone = st.merge()
        assert clone.pairs == 7
        clone.pairs = 0
        assert st.pairs == 7

    def test_method_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JoinRunStats(method="ST2").merge(JoinRunStats(method="P+C"))


class TestTopologyJoinWorkers:
    @pytest.fixture(autouse=True)
    def force_pool(self, monkeypatch):
        # ``Engine.join`` runs ``auto`` by default, which forks only
        # past the break-even on a multi-core box — lift both so
        # ``workers=2`` on this small fixture still exercises the pool.
        import os

        import repro.parallel.executor as executor

        monkeypatch.setattr(executor, "PARALLEL_MIN_PAIRS", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    @pytest.fixture(scope="class")
    def inputs(self):
        rng = np.random.default_rng(7)
        region = Box(0, 0, 200, 200)
        districts = generate_tessellation(rng, region, 3, 3, edge_points=6)
        blobs = generate_blobs(rng, 30, region, (2, 20), (8, 40))
        return districts, blobs

    @staticmethod
    def _join(inputs, workers, **kwargs):
        districts, blobs = inputs
        return Engine().join(districts, blobs, grid_order=9, workers=workers, **kwargs)

    def test_find_relations_identical(self, inputs):
        serial = self._join(inputs, 1)
        parallel = self._join(inputs, 2)
        assert (serial.mode, parallel.mode) == ("serial", "parallel")
        assert parallel.results == serial.results

    def test_pairs_satisfying_identical(self, inputs):
        serial = self._join(inputs, 1, predicate=T.CONTAINS)
        parallel = self._join(inputs, 2, predicate=T.CONTAINS)
        assert parallel.mode == "parallel"
        assert parallel.matches == serial.matches

    def test_stats_counts_identical(self, inputs):
        serial = self._join(inputs, 1).stats
        parallel = self._join(inputs, 2).stats
        assert parallel.relation_counts == serial.relation_counts
        assert parallel.refined == serial.refined

    def test_invalid_workers_rejected(self, inputs):
        with pytest.raises(ValueError):
            self._join(inputs, 0)


class TestCliWorkers:
    def test_join_with_workers_flag(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.datasets.io import save_wkt_file

        rng = np.random.default_rng(3)
        region = Box(0, 0, 100, 100)
        r_path = tmp_path / "r.wkt"
        s_path = tmp_path / "s.wkt"
        save_wkt_file(r_path, generate_blobs(rng, 12, region, (4, 20), (8, 24)))
        save_wkt_file(s_path, generate_blobs(rng, 12, region, (4, 20), (8, 24)))

        assert main(["join", str(r_path), str(s_path), "--workers", "2",
                     "--mode", "parallel", "--grid-order", "8"]) == 0
        parallel_out = capsys.readouterr().out
        assert main(["join", str(r_path), str(s_path), "--grid-order", "8"]) == 0
        serial_out = capsys.readouterr().out
        assert parallel_out == serial_out

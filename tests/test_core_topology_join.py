"""Whole-dataset topology joins through ``Engine.join``: relations
against ground truth, relate_p, the grid margin at web-mercator scale,
lazy APRIL attachment and the run report."""

import json

import numpy as np
import pytest

from repro import obs
from repro.__main__ import main
from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs, generate_tessellation
from repro.geometry import Box, Polygon
from repro.join.run import JoinResult
from repro.store import Engine
from repro.topology import TopologicalRelation as T, most_specific_relation, relate


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(42)
    region = Box(0, 0, 300, 300)
    districts = generate_tessellation(rng, region, 3, 3, edge_points=8)
    blobs = generate_blobs(rng, 40, region, (2, 25), (8, 60))
    return districts, blobs


def _objects(engine, r, s, grid_order):
    """The engine's cached object lists for the pair, as they are after
    the joins that ran on it (no APRIL is attached by this lookup)."""
    rd, sd = engine.dataset(r), engine.dataset(s)
    grid = engine.join_grid(rd, sd, grid_order)
    return (
        engine.objects(rd, grid, with_april=False),
        engine.objects(sd, grid, with_april=False),
    )


class TestTopologyJoin:
    def test_find_relations_match_ground_truth(self, inputs):
        districts, blobs = inputs
        run = Engine().join(districts, blobs, grid_order=9, include_disjoint=True)
        assert len(run.results) == run.stats.pairs
        for link in run.results[:80]:
            truth = most_specific_relation(
                relate(districts[link.r_index], blobs[link.s_index])
            )
            assert link.relation is truth

    def test_disjoint_excluded_by_default(self, inputs):
        districts, blobs = inputs
        run = Engine().join(districts, blobs, grid_order=9)
        assert all(r.relation is not T.DISJOINT for r in run.results)

    def test_pairs_satisfying_predicate(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        contains = set(
            engine.join(districts, blobs, grid_order=9, predicate=T.CONTAINS).matches
        )
        # Cross-check against find-relation: contains ⊆ covers results.
        by_relation = {
            (r.r_index, r.s_index): r.relation
            for r in engine.join(districts, blobs, grid_order=9).results
        }
        for pair, relation in by_relation.items():
            if relation is T.CONTAINS:
                assert pair in contains
            if relation in (T.DISJOINT, T.MEETS, T.INTERSECTS, T.INSIDE):
                assert pair not in contains

    def test_stats_methods_agree_on_counts(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        st2 = engine.join(districts, blobs, grid_order=9, method="ST2").stats
        pc = engine.join(districts, blobs, grid_order=9, method="P+C").stats
        assert st2.relation_counts == pc.relation_counts
        assert pc.undetermined_pct <= st2.undetermined_pct

    def test_unknown_method_rejected(self, inputs):
        districts, blobs = inputs
        with pytest.raises(KeyError):
            Engine().join(districts, blobs, method="FASTEST")

    def test_empty_inputs_rejected(self, inputs):
        districts, _ = inputs
        with pytest.raises(ValueError):
            Engine().join(districts, [])

    def test_preprocessed_keyword_is_gone(self, inputs):
        # Index directories are the one persistence path; the private
        # .npz side door (and save_preprocessing) went with PR 22.
        districts, blobs = inputs
        with pytest.raises(TypeError):
            Engine().join(districts, blobs, grid_order=9, preprocessed=("r.npz", "s.npz"))
        assert not hasattr(Engine, "save_preprocessing")

    def test_join_result_fields(self, inputs):
        districts, blobs = inputs
        link = Engine().join(districts, blobs, grid_order=9).results[0]
        assert isinstance(link, JoinResult)
        assert isinstance(link.filtered, bool)


class TestGridEpsilon:
    """Regression: the dataspace margin must register at any coordinate
    magnitude (web-mercator metres reach ~2e7, where an absolute 1e-9
    is below one ulp and vanishes in float arithmetic)."""

    WEB_MERCATOR = 2.0e7

    def _shifted_inputs(self):
        base = self.WEB_MERCATOR
        r = [Polygon.box(base, base, base + 64.0, base + 64.0),
             Polygon.box(base + 80.0, base + 80.0, base + 120.0, base + 120.0)]
        s = [Polygon.box(base + 16.0, base + 16.0, base + 48.0, base + 48.0),
             Polygon.box(base + 100.0, base + 100.0, base + 160.0, base + 140.0)]
        return r, s

    def test_dataspace_strictly_contains_extent(self):
        r, s = self._shifted_inputs()
        engine = Engine()
        ds = engine.join_grid(engine.dataset(r), engine.dataset(s), 8).dataspace
        extent = Box.union_all([p.bbox for p in r + s])
        assert ds.xmin < extent.xmin and ds.ymin < extent.ymin
        assert ds.xmax > extent.xmax and ds.ymax > extent.ymax

    def test_relations_correct_at_web_mercator_scale(self):
        r, s = self._shifted_inputs()
        run = Engine().join(r, s, grid_order=8, include_disjoint=True)
        results = {(link.r_index, link.s_index): link.relation for link in run.results}
        for (i, j), relation in results.items():
            assert relation is most_specific_relation(relate(r[i], s[j]))
        assert results[(0, 0)] is T.CONTAINS


class TestLazyApril:
    def test_st2_builds_no_april(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        run = engine.join(districts, blobs, grid_order=9, method="ST2")
        assert run.stats.method == "ST2"
        rd, sd = engine.dataset(districts), engine.dataset(blobs)
        assert run.stats.pairs == len(engine.pairs(rd, sd))
        r_objects, s_objects = _objects(engine, districts, blobs, 9)
        assert all(o.april is None for o in r_objects)
        assert all(o.april is None for o in s_objects)

    def test_op2_builds_no_april(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        engine.join(districts, blobs, grid_order=9, method="OP2")
        r_objects, s_objects = _objects(engine, districts, blobs, 9)
        assert all(o.april is None for o in r_objects + s_objects)

    def test_april_backfilled_on_demand(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        st2 = engine.join(districts, blobs, grid_order=9, method="ST2").stats
        r_objects, s_objects = _objects(engine, districts, blobs, 9)
        assert all(o.april is None for o in r_objects)
        # P+C needs APRIL: the same cached objects get it lazily.
        pc = engine.join(districts, blobs, grid_order=9, method="P+C").stats
        assert all(o.april is not None for o in r_objects + s_objects)
        assert pc.relation_counts == st2.relation_counts

    def test_relate_p_backfills_april(self, inputs):
        districts, blobs = inputs
        baseline = Engine().join(districts, blobs, grid_order=9, predicate=T.CONTAINS)
        engine = Engine()
        engine.join(districts, blobs, grid_order=9, method="ST2")
        run = engine.join(
            districts, blobs, grid_order=9, method="ST2", predicate=T.CONTAINS
        )
        assert set(run.matches) == set(baseline.matches)
        r_objects, _ = _objects(engine, districts, blobs, 9)
        assert all(o.april is not None for o in r_objects)


class TestReport:
    """A library ``Engine.join`` and the CLI's ``--run-log`` record are
    one builder (``obs.build_run_report``) fed the same join."""

    @pytest.fixture(autouse=True)
    def obs_off(self):
        obs.disable_all()
        yield
        obs.disable_all()

    def test_matches_cli_record(self, inputs, tmp_path, capsys):
        districts, blobs = inputs
        r_path, s_path = tmp_path / "r.wkt", tmp_path / "s.wkt"
        save_wkt_file(r_path, districts)
        save_wkt_file(s_path, blobs)
        log = tmp_path / "runs.jsonl"
        assert main([
            "join", str(r_path), str(s_path), "--grid-order", "9",
            "--trace", str(tmp_path / "trace.json"), "--run-log", str(log),
        ]) == 0
        capsys.readouterr()
        (cli,) = [json.loads(line) for line in log.read_text().splitlines()]

        obs.disable_all()
        obs.set_tracing(True)
        run = Engine().join(districts, blobs, grid_order=9)
        report = obs.build_run_report(
            run, "P+C", spans=True, metrics=False, profile=False, meta=run.meta
        ).to_dict()

        assert (report["kind"], report["method"]) == (cli["kind"], cli["method"])
        assert report["kind"] == "join_run" and report["method"] == "P+C"
        timed = {"filter_seconds", "refine_seconds", "total_seconds", "throughput"}
        assert {k: v for k, v in report["stats"].items() if k not in timed} == {
            k: v for k, v in cli["stats"].items() if k not in timed
        }

        def names(spans):
            return [
                (span["name"], names(span.get("children", []))) for span in spans
            ]

        def root(spans):
            (found,) = [s for s in spans if s["name"] == "topology_join"]
            return found

        assert names([root(report["spans"])]) == names([root(cli["spans"])])
        assert "metrics" not in report and "profile" not in report
        assert report["meta"]["grid_order"] == 9

"""Tests for the TopologyJoin alias and APRIL persistence."""

import json

import numpy as np
import pytest

from repro import obs
from repro.__main__ import main
from repro.core import JoinResult, TopologyJoin
from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs, generate_tessellation
from repro.geometry import Box, Polygon
from repro.raster import RasterGrid, build_april
from repro.raster.storage import StoreError, load_approximations, save_approximations
from repro.topology import TopologicalRelation as T, most_specific_relation, relate


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(42)
    region = Box(0, 0, 300, 300)
    districts = generate_tessellation(rng, region, 3, 3, edge_points=8)
    blobs = generate_blobs(rng, 40, region, (2, 25), (8, 60))
    return districts, blobs


class TestTopologyJoin:
    def test_find_relations_match_ground_truth(self, inputs):
        districts, blobs = inputs
        join = TopologyJoin(districts, blobs, grid_order=9)
        results = list(join.find_relations(include_disjoint=True))
        assert len(results) == len(join.candidate_pairs)
        for link in results[:80]:
            truth = most_specific_relation(
                relate(districts[link.r_index], blobs[link.s_index])
            )
            assert link.relation is truth

    def test_disjoint_excluded_by_default(self, inputs):
        districts, blobs = inputs
        join = TopologyJoin(districts, blobs, grid_order=9)
        assert all(
            r.relation is not T.DISJOINT for r in join.find_relations()
        )

    def test_pairs_satisfying_predicate(self, inputs):
        districts, blobs = inputs
        join = TopologyJoin(districts, blobs, grid_order=9)
        inside_pairs = set(join.pairs_satisfying(T.CONTAINS))
        # Cross-check against find_relations: contains ⊆ covers results.
        by_relation = {
            (r.r_index, r.s_index): r.relation for r in join.find_relations()
        }
        for pair, relation in by_relation.items():
            if relation is T.CONTAINS:
                assert pair in inside_pairs
            if relation in (T.DISJOINT, T.MEETS, T.INTERSECTS, T.INSIDE):
                assert pair not in inside_pairs

    def test_stats_methods_agree_on_counts(self, inputs):
        districts, blobs = inputs
        join = TopologyJoin(districts, blobs, grid_order=9)
        st2 = join.stats("ST2")
        pc = join.stats("P+C")
        assert st2.relation_counts == pc.relation_counts
        assert pc.undetermined_pct <= st2.undetermined_pct

    def test_unknown_method_rejected(self, inputs):
        districts, blobs = inputs
        with pytest.raises(KeyError):
            TopologyJoin(districts, blobs, method="FASTEST")

    def test_empty_inputs_rejected(self, inputs):
        districts, _ = inputs
        with pytest.raises(ValueError):
            TopologyJoin(districts, [])

    def test_preprocessed_keyword_is_gone(self, inputs):
        # Index directories are the one persistence path; the private
        # .npz side door (and save_preprocessing) went with PR 22.
        districts, blobs = inputs
        with pytest.raises(TypeError):
            TopologyJoin(districts, blobs, grid_order=9, preprocessed=("r.npz", "s.npz"))
        assert not hasattr(TopologyJoin, "save_preprocessing")

    def test_join_result_fields(self, inputs):
        districts, blobs = inputs
        join = TopologyJoin(districts, blobs, grid_order=9)
        link = next(iter(join.find_relations()))
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
        join = TopologyJoin(r, s, grid_order=8)
        extent = Box.union_all([p.bbox for p in r + s])
        ds = join.grid.dataspace
        assert ds.xmin < extent.xmin and ds.ymin < extent.ymin
        assert ds.xmax > extent.xmax and ds.ymax > extent.ymax

    def test_relations_correct_at_web_mercator_scale(self):
        r, s = self._shifted_inputs()
        join = TopologyJoin(r, s, grid_order=8)
        results = {
            (link.r_index, link.s_index): link.relation
            for link in join.find_relations(include_disjoint=True)
        }
        for (i, j), relation in results.items():
            assert relation is most_specific_relation(relate(r[i], s[j]))
        assert results[(0, 0)] is T.CONTAINS


class TestLazyApril:
    def test_st2_builds_no_april(self, inputs):
        districts, blobs = inputs
        join = TopologyJoin(districts, blobs, grid_order=9, method="ST2")
        stats = join.stats()
        assert stats.method == "ST2"
        assert stats.pairs == len(join.candidate_pairs)
        assert all(o.april is None for o in join.r_objects)
        assert all(o.april is None for o in join.s_objects)

    def test_op2_builds_no_april(self, inputs):
        districts, blobs = inputs
        join = TopologyJoin(districts, blobs, grid_order=9, method="OP2")
        list(join.find_relations())
        assert all(o.april is None for o in join.r_objects + join.s_objects)

    def test_april_backfilled_on_demand(self, inputs):
        districts, blobs = inputs
        join = TopologyJoin(districts, blobs, grid_order=9, method="ST2")
        st2 = join.stats()
        assert all(o.april is None for o in join.r_objects)
        pc = join.stats("P+C")  # needs APRIL: backfills lazily
        assert all(o.april is not None for o in join.r_objects + join.s_objects)
        assert pc.relation_counts == st2.relation_counts

    def test_relate_p_backfills_april(self, inputs):
        districts, blobs = inputs
        join = TopologyJoin(districts, blobs, grid_order=9, method="ST2")
        baseline = set(
            TopologyJoin(districts, blobs, grid_order=9).pairs_satisfying(T.CONTAINS)
        )
        assert set(join.pairs_satisfying(T.CONTAINS)) == baseline
        assert all(o.april is not None for o in join.r_objects)


class TestReport:
    """``TopologyJoin.report()`` and the CLI's ``--run-log`` record are
    one builder (``obs.build_run_report``) fed the same ``Engine.join``."""

    @pytest.fixture(autouse=True)
    def obs_off(self):
        obs.disable_all()
        yield
        obs.disable_all()

    def test_raises_before_any_run(self, inputs):
        districts, blobs = inputs
        with pytest.raises(RuntimeError):
            TopologyJoin(districts, blobs, grid_order=9).report()

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
        join = TopologyJoin(districts, blobs, grid_order=9)
        join.run()
        report = join.report().to_dict()

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


class TestStorage:
    def test_roundtrip_preserves_lists(self, tmp_path):
        grid = RasterGrid(Box(0, 0, 64, 64), order=8)
        polys = [
            Polygon.box(1, 1, 9, 9),
            Polygon([(20, 20), (30, 22), (25, 31)]),
            Polygon([(40, 40), (40.2, 40.1), (40.1, 40.3)]),  # empty P list
        ]
        approx = [build_april(p, grid) for p in polys]
        path = tmp_path / "approx.npz"
        save_approximations(path, approx)
        back = load_approximations(path)
        assert len(back) == len(approx)
        for a, b in zip(approx, back):
            assert a.p == b.p and a.c == b.c
            assert b.grid.compatible_with(grid)

    def test_empty_sequence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_approximations(tmp_path / "x.npz", [])

    @pytest.mark.parametrize(
        "other",
        [
            RasterGrid(Box(0, 0, 64, 64), order=9),  # other order
            RasterGrid(Box(0, 0, 65, 64), order=8),  # other dataspace
        ],
        ids=["order", "dataspace"],
    )
    def test_expected_grid_mismatch_rejected(self, tmp_path, other):
        grid = RasterGrid(Box(0, 0, 64, 64), order=8)
        path = tmp_path / "approx.npz"
        save_approximations(path, [build_april(Polygon.box(1, 1, 9, 9), grid)])
        assert len(load_approximations(path, expected_grid=grid)) == 1
        with pytest.raises(StoreError, match="built on grid"):
            load_approximations(path, expected_grid=other)
        assert load_approximations(path, expected_grid=other, on_error="rebuild") is None

    def test_mixed_grids_rejected(self, tmp_path):
        g1 = RasterGrid(Box(0, 0, 64, 64), order=8)
        g2 = RasterGrid(Box(0, 0, 64, 64), order=9)
        a = build_april(Polygon.box(1, 1, 5, 5), g1)
        b = build_april(Polygon.box(1, 1, 5, 5), g2)
        with pytest.raises(ValueError):
            save_approximations(tmp_path / "x.npz", [a, b])

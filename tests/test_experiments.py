"""Tests for the experiment harness (small scales, shape assertions)."""

import json

import pytest

from repro.experiments.common import ALL_METHODS, ALL_SCENARIOS, ExperimentResult
from repro.experiments.fig8 import pair_complexity, run_fig8a, run_fig8b, run_table4
from repro.experiments.fig9 import run_fig9
from repro.experiments.table3 import run_table3
from repro.experiments.table5 import run_table5
from repro.experiments.__main__ import EXPERIMENTS, main

SMALL = dict(scale=0.25, grid_order=10)


class TestExperimentResult:
    def test_add_row_validates_width(self):
        r = ExperimentResult("X", "t", ("a", "b"))
        with pytest.raises(ValueError):
            r.add_row(1)
        r.add_row(1, 2)
        assert r.rows == [(1, 2)]

    def test_column(self):
        r = ExperimentResult("X", "t", ("a", "b"))
        r.add_row(1, 10)
        r.add_row(2, 20)
        assert r.column("b") == [10, 20]

    def test_render_contains_everything(self):
        r = ExperimentResult("X", "title here", ("col1", "col2"))
        r.add_row("v", 3.14159)
        r.notes.append("a note")
        text = r.render()
        assert "title here" in text and "col1" in text and "a note" in text

    def test_render_bars(self):
        r = ExperimentResult("X", "t", ("name", "val"))
        r.add_row("a", 10.0)
        r.add_row("b", 5.0)
        bars = r.render_bars("val")
        a_line = next(l for l in bars.splitlines() if l.startswith("a"))
        b_line = next(l for l in bars.splitlines() if l.startswith("b"))
        assert a_line.count("#") > b_line.count("#")

    def test_as_dict_roundtrips_json(self):
        r = ExperimentResult("X", "t", ("a",))
        r.add_row(1)
        assert json.loads(json.dumps(r.as_dict()))["experiment"] == "X"


class TestTable3:
    def test_single_scenario(self):
        result = run_table3(scenarios=("TL-TW",), **SMALL)
        assert len(result.rows) == 1
        assert result.column("Candidate pairs")[0] >= 0


class TestFig8:
    def test_table4_levels_partition_pairs(self):
        result = run_table4(**SMALL)
        assert len(result.rows) == 10
        from repro.datasets import load_scenario

        data = load_scenario("OLE-OPE", **{"scale": 0.25, "grid_order": 10})
        assert sum(result.column("Pair count")) == len(data.pairs)

    def test_table4_levels_sorted_by_complexity(self):
        result = run_table4(**SMALL)
        ranges = [tuple(map(int, s.strip("[]").split(","))) for s in result.column("Sum of vertices")]
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert lo1 <= lo2 and hi1 <= hi2

    def test_fig8a_has_ten_levels(self):
        result = run_fig8a(**SMALL)
        assert len(result.rows) == 10
        assert all(0.0 <= v <= 100.0 for v in result.column("P+C undetermined %"))

    def test_fig8b_columns_positive(self):
        result = run_fig8b(**SMALL)
        assert len(result.rows) == 10
        for column in ("OP2-REF", "P+C-IF", "P+C total"):
            assert all(v >= 0.0 for v in result.column(column))

    def test_fig8b_pc_beats_op2_overall(self):
        result = run_fig8b(**SMALL)
        assert sum(result.column("P+C total")) < sum(result.column("OP2-REF"))

    def test_pair_complexity(self):
        from repro.datasets import load_scenario

        data = load_scenario("OLE-OPE", **{"scale": 0.25, "grid_order": 10})
        i, j = data.pairs[0]
        assert pair_complexity(data, (i, j)) == (
            data.r_objects[i].num_vertices + data.s_objects[j].num_vertices
        )


class TestFig9:
    def test_showcase_pair_found_and_consistent(self):
        result = run_fig9(scale=0.5, grid_order=10, repeats=1)
        if not result.rows:
            pytest.skip("no IF-resolved inside pair at this scale")
        stats = dict(zip(result.column("Statistic"), zip(result.column("Lake (r)"),
                                                         result.column("Park (s)"))))
        lake_v, park_v = stats["Vertices"]
        assert lake_v >= 3 and park_v >= 3
        # The lake's MBR area must be smaller than the park's (it is inside).
        lake_a, park_a = stats["MBR area"]
        assert lake_a < park_a


class TestTable5:
    def test_rows_and_speedups(self):
        result = run_table5(**SMALL)
        methods = result.column("Method")
        assert methods == ["find relation", "relate_p", "speedup", "relate_p undetermined %"]


class TestCli:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table2", "table3", "fig7a", "fig7b", "table4", "fig8a", "fig8b", "fig9",
            "table5", "ablation-grid",
        }

    def test_main_runs_one_experiment(self, capsys, tmp_path):
        out_json = tmp_path / "out.json"
        code = main(["table3", "--scale", "0.25", "--grid-order", "10", "--json", str(out_json)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Table 3" in captured
        payload = json.loads(out_json.read_text())
        assert payload[0]["experiment"] == "Table 3"

    def test_scenario_and_method_constants(self):
        assert len(ALL_SCENARIOS) == 7
        assert ALL_METHODS == ("ST2", "OP2", "APRIL", "P+C")

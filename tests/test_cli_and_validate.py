"""Tests for the top-level CLI."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs
from repro.geometry import Box


@pytest.fixture()
def wkt_files(tmp_path):
    rng = np.random.default_rng(13)
    region = Box(0, 0, 200, 200)
    r = generate_blobs(rng, 15, region, (5, 30), (8, 30))
    s = generate_blobs(rng, 15, region, (5, 30), (8, 30))
    r_path = tmp_path / "r.wkt"
    s_path = tmp_path / "s.wkt"
    save_wkt_file(r_path, r)
    save_wkt_file(s_path, s)
    return str(r_path), str(s_path)


class TestCli:
    def test_relate(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["relate", r, s]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 15
        for line in lines:
            _, code, name = line.split("\t")
            assert len(code) == 9

    def test_join(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["join", r, s, "--grid-order", "9"]) == 0
        err = capsys.readouterr().err
        assert "candidates" in err

    def test_join_predicate(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["join", r, s, "--grid-order", "9", "--predicate", "intersects"]) == 0
        err = capsys.readouterr().err
        assert "intersects" in err

    def test_select(self, wkt_files, capsys):
        r, _ = wkt_files
        query = "POLYGON ((0 0, 200 0, 200 200, 0 200, 0 0))"
        assert main(["select", r, "--query", query, "--predicate", "inside",
                     "--grid-order", "9"]) == 0
        err = capsys.readouterr().err
        assert "inside" in err

    @pytest.mark.parametrize("query, reason", [
        ("CIRCLE (5 5)", "unsupported WKT type: 'CIRCLE'"),
        ("POLYGON ((0 0, 1 0", "expected ')' at position 18, found '<end>'"),
        ("LINESTRING (0 0, 1 1)", "unsupported WKT type: 'LINESTRING'"),
        ("POINT (1 1)", "unsupported WKT type: 'POINT'"),
    ])
    def test_select_bad_query_is_one_line(self, wkt_files, query, reason):
        r, _ = wkt_files
        with pytest.raises(SystemExit) as refused:
            main(["select", r, "--query", query])
        message = refused.value.code
        assert message == f"--query must be a POLYGON or MULTIPOLYGON WKT: {reason}"

    def test_approximate(self, wkt_files, tmp_path, capsys):
        # The subcommand is gone (index directories are the one
        # persistence path): argparse rejects it like any unknown one.
        r, _ = wkt_files
        with pytest.raises(SystemExit) as exit_info:
            main(["approximate", r, "--out", str(tmp_path / "approx.npz")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'approximate'" in capsys.readouterr().err

    def test_stats(self, wkt_files, capsys):
        r, _ = wkt_files
        assert main(["stats", r]) == 0
        out = capsys.readouterr().out
        assert "geometries:     15" in out

    def test_bad_predicate(self, wkt_files):
        r, s = wkt_files
        with pytest.raises(SystemExit):
            main(["join", r, s, "--predicate", "nearby"])

    def test_predicate_aliases(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["join", r, s, "--grid-order", "9", "--predicate", "covered_by"]) == 0

    def test_datasets_cli_list(self, capsys):
        from repro.datasets.__main__ import main as datasets_main

        assert datasets_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "TL" in out and "scenarios" in out

    def test_datasets_cli_export_and_stats(self, tmp_path, capsys):
        from repro.datasets.__main__ import main as datasets_main

        out = tmp_path / "tl.wkt"
        assert datasets_main(["export", "--dataset", "TL", "--scale", "0.1",
                              "--out", str(out)]) == 0
        assert out.exists()
        assert datasets_main(["stats", "--dataset", "TL", "--scale", "0.1"]) == 0
        text = capsys.readouterr().out
        assert "polygons:" in text


class TestCliObservability:
    @pytest.fixture(autouse=True)
    def obs_off(self):
        # The CLI flags flip module-wide switches; keep them from
        # leaking into other tests running in this process.
        from repro import obs

        obs.disable_all()
        yield
        obs.disable_all()

    def test_join_with_all_obs_flags(self, wkt_files, tmp_path, capsys):
        import json

        from repro.obs.metrics import parse_prometheus
        from repro.obs.report import read_jsonl

        r, s = wkt_files
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        log_path = tmp_path / "runs.jsonl"
        assert main([
            "join", r, s, "--grid-order", "9",
            "--trace", str(trace_path),
            "--metrics-out", str(metrics_path),
            "--explain-sample", "2",
            "--run-log", str(log_path),
        ]) == 0
        out, err = capsys.readouterr()

        spans = json.loads(trace_path.read_text())
        names = {spans[0]["name"]} | {
            c["name"] for c in spans[0].get("children", [])
        }
        assert "topology_join" in names

        metrics = json.loads(metrics_path.read_text())
        assert any(
            c["name"] == "repro_verdicts_total" for c in metrics["counters"]
        )
        prom = (tmp_path / "metrics.json.prom").read_text()
        assert parse_prometheus(prom)  # strict round trip

        (record,) = read_jsonl(log_path)
        assert record["kind"] == "join_run"
        assert record["stats"]["pairs"] > 0
        assert record["spans"] and record["metrics"]
        assert "# explain pair" in err or not record.get("explain_samples")

    def test_auto_names_its_pick_and_calibrate_is_gone(self, wkt_files, capsys):
        r, s = wkt_files
        with pytest.raises(SystemExit) as exit_info:
            main(["calibrate"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        # Far below the pool break-even: --workers 4 stays in-process,
        # and stderr says so.
        assert main(["join", r, s, "--grid-order", "9", "--workers", "4"]) == 0
        assert "# auto mode -> serial" in capsys.readouterr().err

    def test_report_renders_every_run_and_takes_no_bench_flags(
        self, wkt_files, tmp_path, capsys
    ):
        r, s = wkt_files
        log_path, out_path = tmp_path / "runs.jsonl", tmp_path / "r.html"
        for extra in ([], ["--predicate", "intersects"]):
            assert main(["join", r, s, "--grid-order", "9", "--trace", "-",
                         "--run-log", str(log_path), *extra]) == 0
        capsys.readouterr()
        assert main(["report", str(log_path), "--out", str(out_path)]) == 0
        assert "wrote dashboard" in capsys.readouterr().out
        html = out_path.read_text(encoding="utf-8")
        assert "Run 1 — join_run / P+C" in html and "Run 2 — " in html
        assert html.count("Span tree") == 2
        assert "Bench trajectory" not in html
        # The trajectory gate went with repro.obs.bench (v1.4.0).
        for flag in (["--bench-root", "."], ["--fail-on-regression"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["report", str(log_path), *flag])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_build_index_takes_no_payload_codec(self, wkt_files, tmp_path, capsys):
        r, _ = wkt_files
        with pytest.raises(SystemExit) as exit_info:
            main(["build-index", r, "--index", str(tmp_path / "idx"),
                  "--payload-codec", "raw"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --payload-codec raw" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()
        assert main(["build-index", r, "--index", str(tmp_path / "idx"),
                     "--grid-order", "8"]) == 0
        assert "# payload codec varint:" in capsys.readouterr().err

    def test_join_has_no_disk_mode(self, wkt_files, capsys):
        # The disk spill went in v1.7.0; --mode serial runs the same rows.
        r, s = wkt_files
        with pytest.raises(SystemExit) as exit_info:
            main(["join", r, s, "--grid-order", "9", "--mode", "disk"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'disk'" in capsys.readouterr().err

    def test_join_trace_to_stderr(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["join", r, s, "--grid-order", "9", "--trace", "-"]) == 0
        err = capsys.readouterr().err
        assert "topology_join" in err and "ms" in err

    def test_join_results_unchanged_by_obs(self, wkt_files, tmp_path, capsys):
        r, s = wkt_files
        assert main(["join", r, s, "--grid-order", "9"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "join", r, s, "--grid-order", "9",
            "--trace", str(tmp_path / "t.json"),
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_predicate_join_run_log(self, wkt_files, tmp_path, capsys):
        from repro.obs.report import read_jsonl

        r, s = wkt_files
        log_path = tmp_path / "runs.jsonl"
        assert main([
            "join", r, s, "--grid-order", "9", "--predicate", "intersects",
            "--run-log", str(log_path),
        ]) == 0
        (record,) = read_jsonl(log_path)
        assert record["meta"]["predicate"] == "intersects"
        assert "matches" in record["meta"]

    def test_explain_subcommand(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["explain", r, s, "--index", "0", "3",
                     "--grid-order", "9"]) == 0
        out = capsys.readouterr().out
        assert "pair (r=0, s=3)" in out
        assert "MBR" in out or "mbr" in out

    def test_explain_default_index(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["explain", r, s]) == 0
        assert "pair (r=0, s=0)" in capsys.readouterr().out

    def test_explain_index_out_of_range(self, wkt_files):
        r, s = wkt_files
        with pytest.raises(SystemExit, match="out of range"):
            main(["explain", r, s, "--index", "99", "0"])
        with pytest.raises(SystemExit, match="out of range"):
            main(["explain", r, s, "--index", "0", "-1"])

    def test_experiments_run_log(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as experiments_main
        from repro.obs.report import read_jsonl

        log_path = tmp_path / "exp.jsonl"
        assert experiments_main([
            "table2", "--scale", "0.1", "--run-log", str(log_path)
        ]) == 0
        (record,) = read_jsonl(log_path)
        assert record["kind"] == "experiment"
        assert record["method"] == "table2"
        assert record["meta"]["result"]["rows"]

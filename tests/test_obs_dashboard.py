"""Tests for the static HTML dashboard (repro.obs.dashboard)."""

import re

import pytest

from repro.obs.dashboard import render_dashboard, write_dashboard


def _run_record():
    return {
        "kind": "join_run",
        "method": "P+C",
        "stats": {
            "pairs": 435,
            "resolved_if": 400,
            "refined": 35,
            "filter_seconds": 0.12,
            "refine_seconds": 0.56,
        },
        "spans": [
            {
                "name": "run_find_relation",
                "seconds": 0.7,
                "attrs": {"pairs": 435, "mem_peak_bytes": 999},
                "children": [
                    {"name": "filter", "seconds": 0.12, "attrs": {}, "children": []}
                ],
            }
        ],
        "profile": {
            "backend": "signal",
            "interval": 0.005,
            "samples": 10,
            "dropped_frames": 0,
            "stacks": {"main;join;filter": 4, "main;join;refine": 6},
            "phases": {"filter": 4, "refine": 6},
            "phase_table": [
                {
                    "phase": "filter",
                    "self_seconds": 0.12,
                    "samples": 4,
                    "sample_share": 0.4,
                }
            ],
        },
        "resources": {
            "max_rss_bytes": 100 * 1024 * 1024,
            "tracemalloc_peak_bytes": 5 * 1024 * 1024,
            "tracemalloc_current_bytes": 1024,
            "phase_peaks": {"filter": 5 * 1024 * 1024},
            "payload": {"stored_bytes": 4096, "decoded_bytes": 65536},
        },
        "metrics": {
            "histograms": [
                {
                    "name": "repro_refine_latency_seconds",
                    "labels": {"method": "P+C"},
                    "count": 35,
                    "quantiles": {"p50": 0.001, "p90": 0.003, "p99": 0.009},
                }
            ]
        },
    }


class TestSelfContained:
    def test_no_script_no_network(self):
        html = render_dashboard([_run_record()])
        assert "<script" not in html.lower()
        assert "http://" not in html and "https://" not in html
        assert "@import" not in html and "url(" not in html

    def test_single_document_with_inline_style(self):
        html = render_dashboard([])
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert html.count("<html") == 1

    def test_dark_mode_styles_present(self):
        html = render_dashboard([])
        assert "prefers-color-scheme: dark" in html


class TestRunSection:
    def test_stat_tiles_and_sections(self):
        html = render_dashboard([_run_record()])
        assert "candidate pairs" in html
        assert "Span tree" in html and "run_find_relation" in html
        assert "Profile — 10 samples" in html
        assert "Flamegraph" in html
        assert "Resources" in html and "max RSS" in html
        assert "payload stored" in html
        assert "Histogram quantiles" in html

    def test_flamegraph_cells_proportional(self):
        html = render_dashboard([_run_record()])
        assert html.count('class="fcell"') >= 3  # root + two leaves
        assert re.search(r'width:\d+\.\d+%', html)

    def test_mem_attrs_hidden_in_span_tree(self):
        html = render_dashboard([_run_record()])
        assert "mem_peak_bytes" not in html.split("Resources")[0]

    def test_html_escaped(self):
        record = _run_record()
        record["method"] = '<img src=x onerror="x">'
        html = render_dashboard([record])
        assert "<img" not in html
        assert "&lt;img" in html

    def test_empty_profile_renders_placeholder(self):
        record = _run_record()
        record["profile"]["stacks"] = {}
        html = render_dashboard([record])
        assert "No samples collected." in html


class TestBenchSection:
    """The bench-trajectory section went with ``repro.obs.bench``."""

    def test_no_trends_no_bench_section(self):
        html = render_dashboard([_run_record()])
        assert "Bench trajectory" not in html and "bench series" not in html
        assert "<svg" not in html

    def test_trends_keyword_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            render_dashboard([_run_record()], trends=[])
        with pytest.raises(TypeError):
            write_dashboard(tmp_path / "report.html", [_run_record()], trends=[])

    def test_empty_page_says_so(self):
        assert "Nothing to report: no run records." in render_dashboard([])


class TestWrite:
    def test_write_dashboard_round_trip(self, tmp_path):
        out = write_dashboard(tmp_path / "report.html", [_run_record()])
        assert out.exists()
        text = out.read_text(encoding="utf-8")
        assert "</html>" in text

    def test_deterministic_given_generated(self):
        a = render_dashboard([_run_record()], generated="T")
        b = render_dashboard([_run_record()], generated="T")
        assert a == b

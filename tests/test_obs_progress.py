"""Tests for progress heartbeats (repro.obs.progress)."""

import io

import pytest

from repro import obs
from repro.obs.progress import (
    ProgressReporter,
    progress_enabled,
    progress_reporter,
    set_progress,
)


@pytest.fixture(autouse=True)
def progress_off():
    set_progress(False)
    yield
    set_progress(False)


class TestFlag:
    def test_disabled_by_default_returns_none(self):
        assert not progress_enabled()
        assert progress_reporter("P+C", 100) is None

    def test_enabled_returns_reporter(self):
        set_progress(True)
        reporter = progress_reporter("P+C part=3", 100)
        assert isinstance(reporter, ProgressReporter)
        assert reporter.label == "P+C part=3"
        assert reporter.total == 100

    def test_flag_round_trip(self):
        set_progress(True)
        assert progress_enabled()
        set_progress(False)
        assert not progress_enabled()


class TestThrottling:
    def test_tick_inside_window_emits_nothing(self):
        stream = io.StringIO()
        reporter = ProgressReporter("P+C", 50, stream=stream, interval=60.0)
        for k in range(50):
            reporter.tick(k)
        assert stream.getvalue() == ""

    def test_tick_after_window_emits_one_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter("P+C", 50, stream=stream, interval=0.0)
        reporter._last -= 1.0  # step outside the window deterministically
        reporter.tick(12, detail="3 refined")
        assert stream.getvalue() == "[P+C] 12/50 pairs, 3 refined\n"

    def test_tick_rearms_the_window(self):
        stream = io.StringIO()
        reporter = ProgressReporter("P+C", 50, stream=stream, interval=60.0)
        reporter._last -= 100.0
        reporter.tick(1)
        reporter.tick(2)  # back inside the freshly-armed window
        assert stream.getvalue().count("\n") == 1


class TestFinishAndSummary:
    def test_finish_is_unconditional(self):
        stream = io.StringIO()
        reporter = ProgressReporter("P+C", 7, stream=stream, interval=60.0)
        reporter.finish(detail="2 refined")
        assert stream.getvalue() == "[P+C] done 7/7 pairs, 2 refined\n"

    def test_finish_without_detail(self):
        stream = io.StringIO()
        ProgressReporter("x", 1, stream=stream).finish()
        assert stream.getvalue() == "[x] done 1/1 pairs\n"

    def test_summary_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter("P+C serial", 10, stream=stream)
        reporter.summary("refine latency p50=0.1ms p95=0.2ms over 4 refined")
        assert stream.getvalue() == (
            "[P+C serial] refine latency p50=0.1ms p95=0.2ms over 4 refined\n"
        )


class TestPipelineIntegration:
    def test_serial_runner_emits_summary_when_enabled(self, capsys):
        from repro.datasets import load_scenario
        from repro.join.pipeline import run_find_relation

        scenario = load_scenario("OLE-OPE", scale=0.2, grid_order=10)
        set_progress(True)
        stats = run_find_relation(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs
        )
        set_progress(False)
        err = capsys.readouterr().err
        assert "done" in err and "pairs" in err
        if stats.refined:  # the refine summary rides on refined pairs only
            assert f"refine: {stats.refined} pairs in 1 batches, " in err
            assert " ms/pair" in err

    def test_disabled_run_emits_nothing(self, capsys):
        from repro.datasets import load_scenario
        from repro.join.pipeline import run_find_relation

        scenario = load_scenario("OLE-OPE", scale=0.2, grid_order=10)
        run_find_relation(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs
        )
        assert capsys.readouterr().err == ""

    def test_obs_facade_exposes_progress(self):
        assert obs.progress_enabled is progress_enabled

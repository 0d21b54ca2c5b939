"""Unit + integration tests for the sampling profiler (repro.obs.profile)."""

import os
import signal
import sys

import pytest

from repro import obs
from repro.datasets import load_scenario
from repro.join.pipeline import run_find_relation
from repro.obs import profile as prof
from repro.obs.trace import trace
from repro.parallel import run_find_relation_parallel


@pytest.fixture(autouse=True)
def obs_off():
    obs.disable_all()
    yield
    obs.disable_all()


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("OLE-OPE", scale=0.3, grid_order=10)


def _spin(n: int = 200_000) -> int:
    x = 0
    for i in range(n):
        x += i * i
    return x


class TestLifecycle:
    def test_disabled_by_default(self):
        assert not prof.profiling_enabled()
        assert prof.export_profile() is None

    def test_enable_disable(self):
        prof.set_profiling(True, backend="setprofile")
        assert prof.profiling_enabled()
        prof.set_profiling(False)
        assert not prof.profiling_enabled()
        assert sys.getprofile() is None

    def test_reset_clears_samples(self):
        prof.set_profiling(True, interval=1e-6, backend="setprofile")
        _spin()
        prof.set_profiling(False)
        assert prof.export_profile()["samples"] > 0
        prof.reset_profile()
        assert prof.export_profile() is None

    def test_interval_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_INTERVAL", "0.123")
        prof.set_profiling(True, backend="setprofile")
        assert prof.sample_interval() == pytest.approx(0.123)

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            prof.set_profiling(True, backend="dtrace")

    def test_reenable_swaps_backend(self):
        prof.set_profiling(True, backend="setprofile")
        prof.set_profiling(True, backend="setprofile", interval=0.5)
        assert prof.sample_interval() == pytest.approx(0.5)


class TestPhaseAttribution:
    def test_normalize_structural_names(self):
        for name in ("topology_join", "partition", "parallel_find", "serial_fallback"):
            assert prof.normalize_phase(name) == "orchestration"

    def test_normalize_keeps_work_phases(self):
        for name in ("filter", "refine", "mbr_filter_step"):
            assert prof.normalize_phase(name) == name

    def test_marker_beats_span_and_untraced(self):
        prof.set_profiling(True, interval=1e-6, backend="setprofile")
        obs.set_tracing(True)
        _spin()  # no marker, no span -> untraced
        with trace("filter"):
            _spin()  # span attribution
        prof.set_phase("refine")
        _spin()  # marker attribution
        prof.clear_phase()
        prof.set_profiling(False)
        phases = prof.export_profile()["phases"]
        assert phases.get("untraced", 0) > 0
        assert phases.get("filter", 0) > 0
        assert phases.get("refine", 0) > 0

    def test_structural_span_folds_to_orchestration(self):
        prof.set_profiling(True, interval=1e-6, backend="setprofile")
        obs.set_tracing(True)
        with trace("topology_join"):
            _spin()
        prof.set_profiling(False)
        phases = prof.export_profile()["phases"]
        assert phases.get("orchestration", 0) > 0
        assert "topology_join" not in phases


@pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs POSIX interval timers"
)
class TestSignalBackend:
    def test_collects_samples(self):
        prof.set_profiling(True, interval=0.001, backend="signal")
        _spin(3_000_000)
        prof.set_profiling(False)
        payload = prof.export_profile()
        assert payload["backend"] == "signal"
        assert payload["samples"] > 0
        assert payload["stacks"]
        # Timer must be fully disarmed after disable.
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_auto_backend_prefers_signal(self):
        prof.set_profiling(True)
        prof.set_profiling(False)
        assert prof.export_profile() is None or True  # no samples needed
        payload_backend = prof._BACKEND
        assert payload_backend == "signal"


class TestExportMerge:
    def _payload(self, stacks, phases):
        return {
            "backend": "setprofile",
            "interval": 0.005,
            "samples": sum(stacks.values()),
            "dropped_frames": 0,
            "stacks": dict(stacks),
            "phases": dict(phases),
        }

    def test_merge_sums_counts(self):
        prof.reset_profile()
        a = self._payload({"main;f": 2}, {"filter": 2})
        b = self._payload({"main;f": 1, "main;g": 3}, {"refine": 4})
        prof.merge_profiles([a, b, None])
        out = prof.export_profile()
        assert out["stacks"] == {"main;f": 3, "main;g": 3}
        assert out["phases"] == {"filter": 2, "refine": 4}
        assert out["samples"] == 6

    def test_merge_order_independent(self):
        a = self._payload({"x": 1}, {"filter": 1})
        b = self._payload({"y": 2}, {"refine": 2})
        prof.reset_profile()
        prof.merge_profiles([a, b])
        ab = prof.export_profile()
        prof.reset_profile()
        prof.merge_profiles([b, a])
        ba = prof.export_profile()
        assert ab == ba  # sorted export keys + commutative addition

    def test_collapsed_stacks_sorted_lines(self):
        payload = self._payload({"b;c": 2, "a;b": 1}, {})
        lines = prof.collapsed_stacks(payload).splitlines()
        assert lines == ["a;b 1", "b;c 2"]


class TestPhaseTable:
    def test_rows_from_spans_sorted_with_sample_join(self):
        obs.set_tracing(True)
        with trace("run_find_relation"):
            with trace("filter"):
                _spin(50_000)
            with trace("refine"):
                _spin(50_000)
        payload = {
            "samples": 10,
            "phases": {"filter": 4, "refine": 5, "untraced": 1},
            "stacks": {},
            "dropped_frames": 0,
        }
        rows = prof.phase_table(payload=payload)
        assert [r["phase"] for r in rows] == ["filter", "orchestration", "refine"]
        by_phase = {r["phase"]: r for r in rows}
        assert by_phase["filter"]["samples"] == 4
        assert by_phase["filter"]["sample_share"] == pytest.approx(0.4)
        # Sample-only phases get no row: untraced has no span.
        assert "untraced" not in by_phase
        for row in rows:
            assert row["self_seconds"] >= 0.0

    def test_format_phase_table(self):
        rows = [
            {"phase": "filter", "self_seconds": 0.01, "samples": 3, "sample_share": 0.3}
        ]
        text = prof.format_phase_table(rows)
        assert "phase" in text and "filter" in text
        assert prof.format_phase_table([]) == "(no phases recorded)"


class TestParallelMergeDeterminism:
    """Acceptance: serial and merged-parallel runs of the same seeded
    join yield the identical phase set and ordering (sample counts are
    run-dependent and explicitly not compared)."""

    def _run(self, scenario, workers):
        obs.disable_all()
        obs.set_tracing(True)
        obs.set_profiling(True, interval=0.001)
        prof.reset_profile()
        if workers == 1:
            run_find_relation("P+C", scenario.r_objects, scenario.s_objects,
                              scenario.pairs)
        else:
            run_find_relation_parallel("P+C", scenario.r_objects,
                                       scenario.s_objects, scenario.pairs,
                                       workers=workers)
        rows = prof.phase_table(payload=prof.export_profile())
        obs.disable_all()
        return rows

    def test_serial_vs_parallel_phase_set(self, scenario):
        serial = self._run(scenario, workers=1)
        parallel = self._run(scenario, workers=2)
        serial_phases = [r["phase"] for r in serial]
        parallel_phases = [r["phase"] for r in parallel]
        assert serial_phases == sorted(serial_phases)
        assert parallel_phases == sorted(parallel_phases)
        # Identical work phases; both shapes fold structure into
        # "orchestration" so the sets line up exactly.
        assert serial_phases == parallel_phases

    def test_parallel_results_unchanged_under_profiling(self, scenario):
        obs.disable_all()
        plain = run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs,
            workers=2,
        )
        obs.set_profiling(True, interval=0.001)
        profiled = run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs,
            workers=2,
        )
        obs.disable_all()
        assert plain.results == profiled.results

"""The byte side of run reports (repro.obs.resources): peak RSS and
payload bytes, built for every report with nothing to switch on."""

import json
import os
import sys
import tracemalloc

import pytest

from repro import obs
from repro.obs import resources as res
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import trace


@pytest.fixture(autouse=True)
def obs_off():
    obs.disable_all()
    yield
    obs.disable_all()


@pytest.fixture
def wkt_pair(tmp_path):
    from repro.datasets import load_scenario
    from repro.datasets.io import save_wkt_file

    scenario = load_scenario("OLE-OPE", scale=0.2, grid_order=9)
    r, s = tmp_path / "r.wkt", tmp_path / "s.wkt"
    save_wkt_file(r, [o.polygon for o in scenario.r_objects])
    save_wkt_file(s, [o.polygon for o in scenario.s_objects])
    return str(r), str(s)


def _spans(spans):
    for span in spans:
        yield span
        yield from _spans(span.get("children", []))


class TestLifecycle:
    def test_always_on(self):
        for name in ("set_resources", "resources_enabled", "reset_resources"):
            assert not hasattr(res, name) and not hasattr(obs, name)
        summary = res.run_resources()
        assert set(summary) == {"max_rss_bytes"}
        assert not tracemalloc.is_tracing()

    def test_max_rss_positive_on_posix(self):
        rss = res.max_rss_bytes()
        assert rss is None or rss > 10 * 1024 * 1024  # a python process

    @pytest.mark.skipif(
        not hasattr(os, "fork") or res._resource is None, reason="needs fork + getrusage"
    )
    def test_max_rss_covers_reaped_children(self):
        # A parallel run's workers are reaped before its report is built:
        # a worker that peaked above the parent is what the run cost.
        resource = res._resource
        unit = 1 if sys.platform == "darwin" else 1024
        target = res.max_rss_bytes() + (32 << 20)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            reached = False
            try:
                chunks = []
                while len(chunks) < 64:  # at most 512 MiB
                    if resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit > target:
                        reached = True
                        break
                    chunks.append(b"\x01" * (8 << 20))
                os.write(write_fd, b"1" if reached else b"0")
            finally:
                os._exit(0)
        os.close(write_fd)
        reached = os.read(read_fd, 1) == b"1"
        os.close(read_fd)
        os.waitpid(pid, 0)
        if not reached:
            pytest.skip("child could not outgrow this process's peak")
        assert res.max_rss_bytes() > target


class TestSpanAnnotation:
    def test_spans_carry_no_memory_attrs(self):
        obs.set_tracing(True)
        obs.set_profiling(True)
        with trace("filter"):
            blob = bytearray(2_000_000)
            del blob
        (span,) = obs.get_spans()
        assert not [k for k in span.attrs if k.startswith("mem_")]
        assert not tracemalloc.is_tracing()


class TestRunSummary:
    def test_payload_bytes_joined_from_registry(self):
        registry = MetricsRegistry()
        registry.observe("repro_april_bytes", 1000, method="P+C")
        registry.observe("repro_april_bytes", 500, method="P+C")
        registry.inc("repro_payload_decoded_bytes_total", value=2048, codec="varint")
        summary = res.run_resources(registry)
        assert summary["payload"] == {"stored_bytes": 1500, "decoded_bytes": 2048}

    def test_no_registry_no_payload_key(self):
        assert "payload" not in res.run_resources()


class TestRunLog:
    def test_profiled_join_leaves_tracemalloc_off(self, wkt_pair, tmp_path, capsys):
        from repro.__main__ import main

        log = tmp_path / "runs.jsonl"
        assert main([
            "join", *wkt_pair, "--grid-order", "9", "--profile",
            str(tmp_path / "profile.txt"), "--trace", str(tmp_path / "trace.json"),
            "--run-log", str(log),
        ]) == 0
        capsys.readouterr()
        assert not tracemalloc.is_tracing()
        (record,) = obs.read_jsonl(log)
        assert record["profile"]["phase_table"]
        assert record["resources"]["max_rss_bytes"] > 0
        assert not [k for k in record["resources"]
                    if k.startswith("tracemalloc") or k == "phase_peaks"]
        spans = list(_spans(record["spans"]))
        assert spans
        assert not [k for s in spans for k in s.get("attrs", {}) if k.startswith("mem_")]

    def test_every_record_carries_max_rss(self, wkt_pair, tmp_path, capsys):
        from repro.__main__ import main

        log = tmp_path / "runs.jsonl"
        join = ["join", *wkt_pair, "--grid-order", "9", "--run-log", str(log)]
        assert main(join) == 0
        assert main(join + ["--profile", str(tmp_path / "p.txt")]) == 0
        assert main(join + ["--metrics-out", str(tmp_path / "m.json")]) == 0
        capsys.readouterr()
        records = obs.read_jsonl(log)
        assert len(records) == 3
        for record in records:
            assert record["resources"]["max_rss_bytes"] > 0
        assert [("payload" in r["resources"]) for r in records] == [False, False, True]

    def test_report_renders_v170_log(self, tmp_path, capsys):
        # A record as v1.7.0 wrote it: tracemalloc figures, per-phase
        # peaks and mem_* span attributes.
        from repro.__main__ import main

        record = {
            "format_version": 1, "kind": "join_run", "method": "P+C",
            "stats": {"pairs": 10, "refined": 2}, "meta": {},
            "spans": [{"name": "topology_join", "seconds": 0.1,
                       "attrs": {"mem_peak_bytes": 4096, "mem_net_bytes": -12}}],
            "resources": {
                "max_rss_bytes": 100 << 20,
                "tracemalloc_peak_bytes": 5 << 20,
                "tracemalloc_current_bytes": 1024,
                "phase_peaks": {"filter": 5 << 20},
            },
        }
        log = tmp_path / "old.jsonl"
        log.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "report.html"
        assert main(["report", str(log), "--out", str(out)]) == 0
        capsys.readouterr()
        html = out.read_text(encoding="utf-8")
        assert "max RSS" in html and "topology_join" in html
        assert "traced" not in html and "mem_peak_bytes" not in html


class TestEngineAttachment:
    def test_engine_without_resources_has_no_meta(self):
        from repro.datasets import load_scenario
        from repro.store.engine import Engine

        scenario = load_scenario("OLE-OPE", scale=0.2, grid_order=10)
        run = Engine().execute(
            "P+C",
            scenario.r_objects,
            scenario.s_objects,
            scenario.pairs,
            mode="serial",
        )
        assert "resources" not in run.meta

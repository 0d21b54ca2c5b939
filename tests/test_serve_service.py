"""The join service end to end: a real server on a loopback socket.

Each test talks HTTP to an in-process :class:`ServiceServer` on an
OS-assigned port, whose joins and index builds run in the service's
forked worker pool — the exact transport and execution production use.
Covered: response identity with a direct engine join, the predicate and
build-index endpoints, that the daemon itself never joins or builds,
health/metrics/dashboard surfaces, wire-error mapping (400/404/413),
the pool's gate (429 when its only worker is held, a lapsed deadline,
a half-open breaker probe that never reached a worker), graceful
drain, and the engine lifecycle (close + context manager + closed
guards).
"""

import os
import signal
import sys
import threading
import time
import urllib.request

import pytest

from repro import Polygon, dumps_wkt, obs
from repro.resilience import failpoints
from repro.serve import (
    JoinService,
    ServiceError,
    WorkerPool,
    breakers as breaker_module,
    pool as pool_module,
    start_server,
    stop_server,
)
from repro.store.engine import Engine
from tests.loadgen import get_json, post_json, run_load


@pytest.fixture()
def data_root(tmp_path):
    r = [Polygon.box(i, 0, i + 1.5, 1.5) for i in range(6)]
    s = [Polygon.box(i + 0.5, 0.5, i + 2.0, 2.0) for i in range(6)]
    (tmp_path / "r.wkt").write_text("\n".join(dumps_wkt(g) for g in r) + "\n")
    (tmp_path / "s.wkt").write_text("\n".join(dumps_wkt(g) for g in s) + "\n")
    return tmp_path


@pytest.fixture()
def server(data_root):
    service = JoinService(root=data_root)
    server, thread = start_server(service)
    host, port = server.server_address
    yield f"http://{host}:{port}", service
    stop_server(server, thread)


def join_payload(**overrides):
    payload = {"r": "r.wkt", "s": "s.wkt", "mode": "serial", "grid_order": 8}
    payload.update(overrides)
    return payload


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _Served:
    """A service over ``pool`` on a loopback socket. Arm any
    ``serve.*`` failpoint before constructing it: the workers fork here."""

    def __init__(self, data_root, pool):
        self.service = JoinService(root=data_root, pool=pool)
        self.pool = pool
        self.server, self.thread = start_server(self.service)
        host, port = self.server.server_address
        self.url = f"http://{host}:{port}"

    def hold_the_worker(self, **overrides):
        """POST a join from a background thread and return once it holds
        a worker; ``join()`` the returned thread for its outcome."""
        outcome = {}

        def _post():
            outcome["status"], outcome["doc"] = post_json(
                f"{self.url}/v1/join", join_payload(**overrides)
            )

        thread = threading.Thread(target=_post, daemon=True)
        thread.outcome = outcome
        thread.start()
        assert wait_for(lambda: self.pool.admission_snapshot()["inflight"] == 1)
        return thread

    def stop(self):
        return stop_server(self.server, self.thread)


class TestJoinEndpoint:
    def test_matches_direct_engine_join(self, server, data_root):
        base, _service = server
        status, doc = post_json(f"{base}/v1/join", join_payload())
        assert status == 200
        assert doc["api_version"] == 1
        assert doc["mode"] == "serial"
        assert doc["request_id"]
        assert doc["service"]["seconds"] > 0
        direct = Engine().join(
            data_root / "r.wkt", data_root / "s.wkt", mode="serial", grid_order=8
        )
        assert doc["results"] == [
            [l.r_index, l.s_index, l.relation.value, l.filtered]
            for l in direct.results
        ]
        assert doc["stats"]["pairs"] == direct.stats.pairs

    @pytest.mark.parametrize("endpoint, extra", [
        ("join", {}), ("predicate", {"predicate": "intersects"}),
    ])
    def test_omitted_workers_is_one_worker(self, data_root, monkeypatch, endpoint, extra):
        # A join must not size a fan-out from the machine's core count
        # unless the request asks. Patched before the pool forks, so the
        # workers see four cores too.
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        service = JoinService(root=data_root)
        server, thread = start_server(service)
        host, port = server.server_address
        try:
            status, doc = post_json(
                f"http://{host}:{port}/v1/{endpoint}",
                {"r": "r.wkt", "s": "s.wkt", "grid_order": 8, **extra},
            )
        finally:
            stop_server(server, thread)
        assert status == 200
        assert doc["workers"] == 1
        assert doc["mode"] == "serial"

    def test_predicate_endpoint(self, server):
        base, _service = server
        status, doc = post_json(
            f"{base}/v1/predicate", join_payload(predicate="intersects")
        )
        assert status == 200
        assert doc["kind"] == "relate"
        assert doc["predicate"] == "intersects"
        assert len(doc["results"]) > 0

    def test_predicate_endpoint_requires_predicate(self, server):
        base, _service = server
        status, doc = post_json(f"{base}/v1/predicate", join_payload())
        assert status == 400
        assert "predicate" in doc["error"]

    def test_build_index_then_warm_join(self, server):
        base, _service = server
        status, doc = post_json(
            f"{base}/v1/build-index",
            {"data": "r.wkt", "index": "r_idx", "grid_order": 8},
        )
        assert status == 200
        assert doc["geometries"] == 6
        status, doc = post_json(f"{base}/v1/join", join_payload(r="r_idx"))
        assert status == 200
        assert len(doc["results"]) > 0

    def test_build_index_accepts_raw_but_writes_varint(self, server, data_root):
        # Wire v1 still takes the field; the store has one payload layout
        # and the response names the one that was written.
        from repro.raster.storage import payload_codec

        base, _service = server
        status, doc = post_json(
            f"{base}/v1/build-index",
            {"data": "r.wkt", "index": "r_idx", "grid_order": 8, "payload_codec": "raw"},
        )
        assert status == 200
        assert doc["payload_codec"] == "varint"
        (payload,) = (data_root / "r_idx" / "april").glob("*.npz")
        assert payload_codec(payload) == "varint"

    def test_disk_mode_answers_serial_rows(self, server):
        # Wire v1 still takes "disk"; the join runs serially and the
        # response names what ran.
        base, _service = server
        status, serial = post_json(f"{base}/v1/join", join_payload())
        disk_status, disk = post_json(f"{base}/v1/join", join_payload(mode="disk"))
        assert status == disk_status == 200
        assert disk["mode"] == "serial"
        assert disk["results"] == serial["results"] and disk["results"]

    def test_grid_order_no_grid_serves_is_never_dispatched(self, server, data_root):
        base, service = server
        for endpoint, payload in (
            ("join", join_payload(grid_order=17)),
            ("build-index", {"data": "r.wkt", "index": "r_idx", "grid_order": 20}),
        ):
            before = service.pool.next_seq()
            status, doc = post_json(f"{base}/v1/{endpoint}", payload)
            assert status == 400
            assert "grid order must be in [1, 16]" in doc["error"]
            # Only this test's own calls advanced the dispatch sequence.
            assert service.pool.next_seq() == before + 1
        assert not (data_root / "r_idx").exists()

    def test_daemon_process_never_joins_or_builds(self, server, monkeypatch):
        # The workers were forked before these patches, so only work the
        # daemon did itself would hit them.
        import repro.store.dataset as dataset_module

        def _refuse(*_args, **_kwargs):
            raise AssertionError("the daemon process ran the work itself")

        monkeypatch.setattr(Engine, "join", _refuse)
        monkeypatch.setattr(dataset_module, "build_dataset", _refuse)
        base, _service = server
        status, doc = post_json(f"{base}/v1/join", join_payload())
        assert status == 200 and doc["results"]
        status, doc = post_json(
            f"{base}/v1/predicate", join_payload(predicate="intersects")
        )
        assert status == 200 and doc["results"]
        status, doc = post_json(
            f"{base}/v1/build-index",
            {"data": "r.wkt", "index": "r_idx", "grid_order": 8},
        )
        assert status == 200 and doc["geometries"] == 6

    def test_wire_violation_maps_to_400(self, server):
        base, _service = server
        status, doc = post_json(f"{base}/v1/join", {"r": "r.wkt"})
        assert status == 400
        assert "missing required field" in doc["error"]

    def test_missing_dataset_maps_to_404(self, server):
        base, _service = server
        status, doc = post_json(f"{base}/v1/join", join_payload(r="ghost.wkt"))
        assert status == 404

    def test_path_escape_refused(self, server):
        base, _service = server
        status, doc = post_json(
            f"{base}/v1/join", join_payload(r="../../etc/passwd")
        )
        assert status == 400
        assert "escapes" in doc["error"]

    @pytest.mark.parametrize("endpoint, payload", [
        ("join", join_payload(r="a\u0000b")),
        ("predicate", join_payload(s="a\u0000b", predicate="intersects")),
        ("build-index", {"data": "r.wkt", "index": "a\u0000b", "grid_order": 8}),
    ])
    def test_name_with_nul_byte_is_400(self, server, endpoint, payload):
        # Path.resolve() under the service root raises on a NUL byte.
        base, _service = server
        status, doc = post_json(f"{base}/v1/{endpoint}", payload)
        assert status == 400, doc
        assert "not a valid path" in doc["error"]

    def test_unknown_path_404(self, server):
        base, _service = server
        status, _doc = post_json(f"{base}/v1/evaluate", {})
        assert status == 404

    def test_oversized_body_413(self, server):
        base, _service = server
        body = b'{"pad": "' + b"x" * (1 << 20) + b'"}'
        request = urllib.request.Request(
            f"{base}/v1/join", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 413


class TestObservabilitySurfaces:
    def test_healthz(self, server):
        base, _service = server
        status, doc = get_json(f"{base}/v1/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["admission"]["max_inflight"] == 1

    def test_metrics_exposition_parses(self, server):
        base, _service = server
        obs.set_metrics(True)
        try:
            post_json(f"{base}/v1/join", join_payload())
            with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode("utf-8")
            parsed = obs.parse_prometheus(text)
            assert (
                parsed['repro_serve_requests_total{endpoint="join",status="200"}']
                >= 1
            )
        finally:
            obs.set_metrics(False)
            obs.reset_metrics()

    def test_run_dashboard_serves_html(self, server):
        base, _service = server
        status, doc = post_json(f"{base}/v1/join", join_payload())
        request_id = doc["request_id"]
        status, listing = get_json(f"{base}/v1/runs")
        assert request_id in listing["runs"]
        with urllib.request.urlopen(
            f"{base}/v1/runs/{request_id}", timeout=30
        ) as resp:
            html = resp.read().decode("utf-8")
        assert "<html" in html.lower()
        assert request_id in html

    def test_unknown_run_404(self, server):
        base, _service = server
        status, _doc = get_json(f"{base}/v1/runs/nope")
        assert status == 404

    def test_run_history_is_bounded(self, data_root):
        service = JoinService(root=data_root, run_history=2)
        server, thread = start_server(service)
        host, port = server.server_address
        base = f"http://{host}:{port}"
        try:
            ids = []
            for _ in range(4):
                _status, doc = post_json(f"{base}/v1/join", join_payload())
                ids.append(doc["request_id"])
            _status, listing = get_json(f"{base}/v1/runs")
            assert listing["runs"] == ids[-2:]
        finally:
            stop_server(server, thread)


class TestAdmission:
    """The pool is the gate: a held worker, not a held ticket, makes
    the next request queue or shed."""

    def test_queue_full_sheds_429(self, data_root):
        with failpoints.inject({"serve.slow_response": "always"}, hang_seconds=0.5):
            served = _Served(data_root, WorkerPool(1, max_queue=0))
        try:
            holder = served.hold_the_worker()
            status, doc = post_json(f"{served.url}/v1/join", join_payload())
            assert status == 429
            assert doc["reason"] == "queue_full" and doc["retry_after"] > 0
            assert "shed" in doc["error"]
            assert served.pool.admission_snapshot()["shed_total"] == 1
            holder.join(10)
            assert holder.outcome["status"] == 200
            # Worker released: the same request succeeds now.
            status, _doc = post_json(f"{served.url}/v1/join", join_payload())
            assert status == 200
        finally:
            served.stop()

    def test_deadline_lapse_sheds(self, data_root, monkeypatch):
        # The holder outlives the 0.3 s deadline and is killed at it; the
        # waiter, which arrived after it, keeps waiting for the respawn
        # (2 s away) and is shed when its own deadline lapses.
        monkeypatch.setattr(pool_module, "SPAWN_BACKOFF", 2.0)
        with failpoints.inject({"serve.slow_response": "always"}, hang_seconds=1.0):
            served = _Served(data_root, WorkerPool(1, max_queue=4, deadline=0.3))
        try:
            holder = served.hold_the_worker()
            t0 = time.monotonic()
            status, doc = post_json(f"{served.url}/v1/join", join_payload())
            assert status == 429 and doc["reason"] == "deadline", doc
            assert 0.1 <= time.monotonic() - t0 < 2.0
            holder.join(10)
            assert holder.outcome["doc"]["reason"] == "worker_hang"
            snapshot = served.pool.admission_snapshot()
            assert snapshot["queued"] == 0 and snapshot["inflight"] == 0
        finally:
            served.stop()

    def test_load_generator_measures_sheds(self, data_root):
        pool = WorkerPool(1, max_queue=0)
        service = JoinService(root=data_root, pool=pool)
        server, thread = start_server(service)
        host, port = server.server_address
        try:
            report = run_load(
                f"http://{host}:{port}/v1/join", join_payload(),
                clients=6, requests_per_client=4,
            )
        finally:
            stop_server(server, thread)
        assert report.requests == 24
        assert report.ok + report.shed + report.errors == 24
        assert report.errors == 0
        # One-at-a-time service, zero queue, six closed-loop clients:
        # overload must shed.
        assert report.shed > 0
        assert pool.admission_snapshot()["shed_total"] == report.shed
        assert report.p99_seconds >= report.p50_seconds

    def test_warm_load_is_all_200_and_rasterises_nothing(self, data_root):
        # Two closed-loop clients against a roomy queue: nothing is shed,
        # and once one request has warmed the engine none builds an
        # approximation. Metrics go on before the worker forks: it
        # inherits the flag, and its counters travel back per request.
        obs.set_metrics(True)
        service = JoinService(root=data_root, pool=WorkerPool(1, max_queue=64))
        server, thread = start_server(service)
        host, port = server.server_address
        url = f"http://{host}:{port}/v1/join"
        try:
            assert post_json(url, join_payload())[0] == 200
            obs.reset_metrics()
            report = run_load(url, join_payload(), clients=2, requests_per_client=8)
            built = sum(
                value
                for key, value in obs.get_registry().counter_values().items()
                if key.startswith("repro_april_built_total")
            )
        finally:
            obs.set_metrics(False)
            obs.reset_metrics()
            stop_server(server, thread)
        assert report.ok == report.requests == 16
        assert report.shed == 0 and report.errors == 0
        assert report.p50_seconds <= report.p95_seconds <= report.p99_seconds
        assert built == 0

    def test_concurrent_submits_keep_the_books(self, data_root):
        # More threads than workers and cores, switching often: every
        # submit is admitted or shed exactly once, and the gate's
        # counters come back to zero.
        pool = WorkerPool(2, max_queue=3).start()
        request = {
            "op": "join", "r": str(data_root / "ghost.wkt"),
            "s": str(data_root / "s.wkt"), "method": "P+C", "grid_order": 8,
            "mode": "serial", "predicate": None, "workers": 1,
            "include_disjoint": False,
        }
        outcomes = []
        outcomes_lock = threading.Lock()

        def _client():
            for _ in range(10):
                try:
                    outcome = pool.submit(dict(request), endpoint="join")[0][0]
                except ServiceError as exc:
                    outcome = exc.reason
                with outcomes_lock:
                    outcomes.append(outcome)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=_client) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        snapshot = pool.admission_snapshot()
        assert len(outcomes) == 120 and set(outcomes) <= {"error", "queue_full"}
        assert snapshot["admitted_total"] == outcomes.count("error")  # the 404 reply
        assert snapshot["shed_total"] == outcomes.count("queue_full")
        assert snapshot["inflight"] == 0 and snapshot["queued"] == 0

    def test_graceful_drain_waits_for_inflight(self, data_root):
        with failpoints.inject({"serve.slow_response": "always"}, hang_seconds=0.5):
            served = _Served(data_root, WorkerPool(1))
        try:
            holder = served.hold_the_worker()
            assert not served.pool.wait_idle(0.05)
            assert served.pool.wait_idle(5)
            holder.join(10)
            assert holder.outcome["status"] == 200
        finally:
            served.stop()


class TestBreakerProbe:
    """A half-open probe that never reached a worker frees its slot."""

    def _open_circuit(self, service, keys):
        service.breakers.admit(keys)
        service.breakers.failure(keys)
        status, doc = service.healthz()
        assert status == 503 and "breaker_open" in doc["degraded_reasons"]
        time.sleep(0.25)  # past the cooldown: the next request probes

    def _assert_next_request_closes(self, served):
        status, doc = post_json(f"{served.url}/v1/join", join_payload())
        assert status == 200, doc
        status, doc = get_json(f"{served.url}/v1/healthz")
        assert status == 200 and doc["ready"] is True, doc
        assert set(doc["breakers"].values()) == {"closed"}

    def test_shed_or_exhausted_probe_does_not_wedge_the_circuit(
        self, data_root, monkeypatch
    ):
        monkeypatch.setattr(breaker_module, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(breaker_module, "BREAKER_COOLDOWN", 0.2)
        monkeypatch.setattr(pool_module, "SPAWN_BACKOFF", 0.5)
        keys = ("r.wkt", "s.wkt")
        with failpoints.inject({"serve.slow_response": "always"}, hang_seconds=0.3):
            served = _Served(data_root, WorkerPool(1, max_queue=0))
        try:
            # 1. The probe is shed 429: other datasets hold the only
            #    worker and nothing may queue.
            for name in ("r", "s"):
                wkt = (data_root / f"{name}.wkt").read_text()
                (data_root / f"{name}2.wkt").write_text(wkt)
            self._open_circuit(served.service, keys)
            holder = served.hold_the_worker(r="r2.wkt", s="s2.wkt")
            status, doc = post_json(f"{served.url}/v1/join", join_payload())
            assert status == 429 and doc["reason"] == "queue_full", doc
            holder.join(10)
            self._assert_next_request_closes(served)
            # 2. The probe finds no live worker: 503 pool_exhausted.
            self._open_circuit(served.service, keys)
            os.kill(served.pool._workers[0].proc.pid, signal.SIGKILL)
            assert wait_for(lambda: served.pool.snapshot()["live"] == 0)
            status, doc = post_json(f"{served.url}/v1/join", join_payload())
            assert status == 503 and doc["reason"] == "pool_exhausted", doc
            assert wait_for(lambda: served.pool.snapshot()["live"] == 1)
            self._assert_next_request_closes(served)
        finally:
            served.stop()


class TestEngineLifecycle:
    def test_close_is_idempotent_and_guards(self):
        engine = Engine()
        r = [Polygon.box(0, 0, 2, 2)]
        s = [Polygon.box(1, 1, 3, 3)]
        run = engine.join(r, s, mode="serial", grid_order=6)
        assert len(run.results) == 1
        engine.close()
        engine.close()
        assert engine.closed
        with pytest.raises(RuntimeError, match="closed"):
            engine.join(r, s, mode="serial", grid_order=6)
        with pytest.raises(RuntimeError, match="closed"):
            engine.dataset(r)

    def test_context_manager_closes(self):
        with Engine() as engine:
            assert not engine.closed
        assert engine.closed
        with pytest.raises(RuntimeError, match="closed"):
            with engine:
                pass

    def test_close_drains_caches(self):
        engine = Engine()
        engine.join(
            [Polygon.box(0, 0, 2, 2)], [Polygon.box(1, 1, 3, 3)],
            mode="serial", grid_order=6,
        )
        assert len(engine._datasets) > 0
        engine.close()
        assert len(engine._datasets) == 0
        assert len(engine._objects) == 0
        assert len(engine._pairs) == 0

    def test_service_close_stops_its_workers(self, data_root):
        service = JoinService(root=data_root)
        assert service.pool.snapshot()["live"] == 1
        service.close()
        service.close()
        assert service.pool.snapshot()["live"] == 0

    def test_default_engine_registers_atexit_close(self):
        import atexit

        from repro.store import engine as engine_module

        registered = []
        original = atexit.register
        engine_module.set_default_engine(None)
        try:
            atexit.register = lambda fn, *a, **k: registered.append(fn)
            engine_module.default_engine()
        finally:
            atexit.register = original
            engine_module.set_default_engine(None)
        assert engine_module._close_default_engine in registered

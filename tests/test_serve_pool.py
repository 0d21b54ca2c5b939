"""Chaos suite for the supervised engine-worker pool, over real HTTP.

Every scenario the pool exists for, exercised end to end on a loopback
socket: workers killed and hung mid-join or mid-build (via the
deterministic ``serve.*`` failpoints, armed *before* the fork so
children inherit them), per-dataset circuit breakers opening and
half-open-probing closed, a 503 when the pool is exhausted,
liveness/readiness divergence, SIGTERM drain with inflight pool
requests, and a mixed-fault workload whose every request eventually
succeeds with results byte-identical to a direct ``Engine.join`` —
while the daemon never restarts.
"""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro import Polygon, dumps_wkt, obs
from repro.resilience import failpoints
from repro.serve import (
    BreakerBoard,
    CircuitBreaker,
    JoinService,
    ServiceError,
    WorkerPool,
    breakers as breaker_module,
    pool as pool_module,
    serve,
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


def join_payload(**overrides):
    payload = {"r": "r.wkt", "s": "s.wkt", "mode": "serial", "grid_order": 8}
    payload.update(overrides)
    return payload


def direct_rows(engine, data_root):
    run = engine.join(
        data_root / "r.wkt", data_root / "s.wkt", mode="serial", grid_order=8
    )
    return [[l.r_index, l.s_index, l.relation.value, l.filtered] for l in run.results]


@pytest.fixture(autouse=True)
def fast_respawn(monkeypatch):
    monkeypatch.setattr(pool_module, "SPAWN_BACKOFF", 0.05)


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _PoolServer:
    """One pooled service on a real socket, torn down deterministically."""

    def __init__(self, data_root, *, workers=2, breakers=None, deadline=5.0):
        self.pool = WorkerPool(workers, max_queue=8, deadline=deadline)
        self.service = JoinService(
            root=data_root,
            pool=self.pool,
            breakers=breakers,
        )
        self.server, self.thread = start_server(self.service)
        host, port = self.server.server_address
        self.url = f"http://{host}:{port}"

    def stop(self):
        return stop_server(self.server, self.thread)


# ----------------------------------------------------------------------
# failpoint sites
# ----------------------------------------------------------------------
class TestServeFailpoints:
    def test_serve_sites_are_known(self):
        for site in ("serve.worker_crash", "serve.worker_hang", "serve.slow_response"):
            assert site in failpoints.KNOWN_SITES

    def test_slow_response_defaults_to_short_delay(self):
        spec = failpoints.arm("serve.slow_response", "always")
        try:
            assert spec.hang_seconds == failpoints.DEFAULT_SLOW_SECONDS
        finally:
            failpoints.disarm("serve.slow_response")

    def test_armed_parent_is_immune(self):
        # The arming process (the daemon) never crashes, hangs, or
        # delays itself.
        with failpoints.inject({"serve.worker_crash": "always",
                                "serve.slow_response": "always"}):
            failpoints.maybe_fail_serve(("r", "s"), 1)  # would SIGKILL if armed here
            assert failpoints.serve_response_delay(("r", "s"), 1) == 0.0


# ----------------------------------------------------------------------
# circuit breaker state machine (unit)
# ----------------------------------------------------------------------
class TestCircuitBreakerUnit:
    def test_opens_after_consecutive_failures_and_probe_closes(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(breaker_module, "BREAKER_COOLDOWN", 0.2)
        board = BreakerBoard()
        keys = ("r.wkt", "s.wkt")
        board.admit(keys)
        board.failure(keys)
        board.admit(keys)  # one failure: still closed
        board.failure(keys)
        assert board.states() == {"r.wkt": "open", "s.wkt": "open"}
        with pytest.raises(ServiceError) as info:
            board.admit(keys)
        assert info.value.reason == "breaker_open"
        assert info.value.retry_after > 0
        time.sleep(0.25)
        board.admit(keys)  # the half-open probe
        assert all(s == "half_open" for s in board.states().values())
        board.success(keys)
        assert all(s == "closed" for s in board.states().values())
        assert not board.any_open()

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.1)
        breaker.failure(time.monotonic())
        assert breaker.state == "open"
        time.sleep(0.15)
        assert breaker.refusal(time.monotonic()) is None
        breaker.commit(time.monotonic())
        assert breaker.state == "half_open"
        # Only one probe at a time while half-open.
        assert breaker.refusal(time.monotonic()) is not None
        breaker.failure(time.monotonic())
        assert breaker.state == "open"

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=3, cooldown=1.0)
        now = time.monotonic()
        breaker.failure(now)
        breaker.failure(now)
        breaker.success()
        breaker.failure(now)
        breaker.failure(now)
        assert breaker.state == "closed"
        breaker.failure(now)
        assert breaker.state == "open"


# ----------------------------------------------------------------------
# the pool over HTTP
# ----------------------------------------------------------------------
class TestWorkerPoolHTTP:
    def test_pool_matches_direct_engine_join(self, data_root):
        ps = _PoolServer(data_root, workers=2)
        try:
            expected = direct_rows(Engine(), data_root)
            for _ in range(3):
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 200
                assert doc["results"] == expected
                assert json.dumps(doc["results"]) == json.dumps(expected)
            snap = ps.pool.snapshot()
            assert snap["live"] == 2 and snap["respawns_total"] == 0
            assert snap["failures_total"] == {}
        finally:
            ps.stop()

    def test_worker_crash_is_isolated_and_respawned(self, data_root):
        with failpoints.inject({"serve.worker_crash": "nth:2"}):
            ps = _PoolServer(data_root, workers=2)
            try:
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 200
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 503
                assert doc["reason"] == "worker_crash"
                assert doc["api_version"] == 1 and doc["status"] == 503
                assert doc["retry_after"] > 0
                # The daemon survives and the next request succeeds.
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 200
                assert doc["results"] == direct_rows(Engine(), data_root)
                assert wait_for(lambda: ps.pool.snapshot()["live"] == 2)
                snap = ps.pool.snapshot()
                assert snap["respawns_total"] >= 1
                assert snap["failures_total"].get("worker_crash") == 1
            finally:
                ps.stop()

    def test_build_index_runs_in_a_worker_and_its_crash_is_isolated(self, data_root):
        # A build forks its rasterisation fan-out from a worker, never
        # from the threaded daemon, and a crash mid-build costs one 503.
        build = {"data": "r.wkt", "index": "r_idx", "grid_order": 8, "workers": 2}
        with failpoints.inject({"serve.worker_crash": "nth:1"}):
            ps = _PoolServer(data_root, workers=1)
            try:
                status, doc = post_json(f"{ps.url}/v1/build-index", build)
                assert status == 503 and doc["reason"] == "worker_crash"
                assert doc["retry_after"] > 0
                assert get_json(f"{ps.url}/v1/livez")[0] == 200
                assert wait_for(lambda: ps.pool.snapshot()["live"] == 1)
                status, doc = post_json(f"{ps.url}/v1/build-index", build)
                assert status == 200 and doc["geometries"] == 6
                status, doc = post_json(f"{ps.url}/v1/join", join_payload(r="r_idx"))
                assert status == 200
                assert doc["results"] == direct_rows(Engine(), data_root)
            finally:
                ps.stop()

    def test_crash_to_next_good_answer_is_bounded(self, data_root):
        # One worker: after the crash only a respawned worker can
        # answer, so the time to the next 200 is the pool's recovery
        # time — EOF detection, the slot's first backoff, a supervisor
        # tick and one fork — not a timeout.
        with failpoints.inject({"serve.worker_crash": "nth:1"}):
            ps = _PoolServer(data_root, workers=1)
            try:
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 503 and doc["reason"] == "worker_crash"
                crashed = time.monotonic()
                assert wait_for(
                    lambda: post_json(f"{ps.url}/v1/join", join_payload())[0] == 200,
                    timeout=5.0,
                )
                assert time.monotonic() - crashed < 0.05 + 2.0
            finally:
                ps.stop()

    def test_worker_hang_hits_the_deadline_and_is_killed(self, data_root):
        with failpoints.inject({"serve.worker_hang": "nth:1"}):
            ps = _PoolServer(data_root, workers=2, deadline=1.0)
            try:
                t0 = time.monotonic()
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                elapsed = time.monotonic() - t0
                assert status == 503
                assert doc["reason"] == "worker_hang"
                assert 0.9 <= elapsed < 5.0
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 200
                assert wait_for(lambda: ps.pool.snapshot()["live"] == 2)
                assert ps.pool.snapshot()["failures_total"].get("worker_hang") == 1
            finally:
                ps.stop()

    def test_slow_response_is_served_within_deadline(self, data_root):
        with failpoints.inject(
            {"serve.slow_response": "nth:1"}, hang_seconds=0.3
        ):
            ps = _PoolServer(data_root, workers=1, deadline=5.0)
            try:
                t0 = time.monotonic()
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 200
                assert time.monotonic() - t0 >= 0.3
                assert ps.pool.snapshot()["respawns_total"] == 0
            finally:
                ps.stop()

    def test_worker_obs_merges_into_daemon_registry(self, data_root):
        obs.set_metrics(True)
        obs.set_tracing(True)
        obs.reset_metrics()
        try:
            ps = _PoolServer(data_root, workers=1)
            try:
                status, _ = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 200
                counters = obs.get_registry().counter_values()
                built_cold = sum(
                    v for k, v in counters.items()
                    if k.startswith("repro_april_built_total")
                )
                assert built_cold > 0  # the worker's build travelled back
                status, _ = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 200
                counters = obs.get_registry().counter_values()
                built_warm = sum(
                    v for k, v in counters.items()
                    if k.startswith("repro_april_built_total")
                )
                # Warm second request rasterises nothing, provably so
                # from the parent's /metrics even though the join ran
                # in a forked worker.
                assert built_warm == built_cold
                # The request's span tree came back for the dashboard.
                request_id = get_json(f"{ps.url}/v1/runs")[1]["runs"][-1]
                with ps.service._runs_lock:
                    record = ps.service._runs[request_id]
                assert record["spans"], "worker spans missing from run record"
            finally:
                ps.stop()
        finally:
            obs.set_metrics(False)
            obs.set_tracing(False)
            obs.reset_metrics()
            obs.reset_tracing()


# ----------------------------------------------------------------------
# breaker + degradation over HTTP
# ----------------------------------------------------------------------
class TestBreakerHTTP:
    def test_breaker_opens_fast_fails_then_probe_closes(self, data_root, monkeypatch):
        monkeypatch.setattr(breaker_module, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(breaker_module, "BREAKER_COOLDOWN", 0.4)
        with failpoints.inject({"serve.worker_crash": "times:2"}):
            ps = _PoolServer(data_root, workers=1, breakers=BreakerBoard())
            try:
                for _ in range(2):
                    assert wait_for(lambda: ps.pool.snapshot()["live"] == 1)
                    status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                    assert status == 503 and doc["reason"] == "worker_crash"
                status, doc = get_json(f"{ps.url}/v1/healthz")
                assert status == 503 and doc["status"] == "degraded"
                assert "breaker_open" in doc["degraded_reasons"]
                assert doc["breakers"] == {"r.wkt": "open", "s.wkt": "open"}
                # Open circuit answers immediately, without a dispatch.
                t0 = time.monotonic()
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 503 and doc["reason"] == "breaker_open"
                assert doc["retry_after"] > 0
                assert time.monotonic() - t0 < 0.2
                # Cooldown passes, the worker respawns (the times:2
                # schedule is spent), the half-open probe closes it.
                time.sleep(0.45)
                assert wait_for(lambda: ps.pool.snapshot()["live"] == 1)
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 200
                status, doc = get_json(f"{ps.url}/v1/healthz")
                assert status == 200 and doc["ready"] is True
                assert doc["breakers"] == {"r.wkt": "closed", "s.wkt": "closed"}
            finally:
                ps.stop()


class TestDegradation:
    def test_shed_when_pool_exhausted(self, data_root, monkeypatch):
        monkeypatch.setattr(pool_module, "SPAWN_BACKOFF", 5.0)
        with failpoints.inject({"serve.worker_crash": "nth:1"}):
            ps = _PoolServer(data_root, workers=1)
            try:
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 503 and doc["reason"] == "worker_crash"
                # No live worker, respawn 5 s away: refused at once, with
                # the respawn ETA as the retry hint.
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 503 and doc["reason"] == "pool_exhausted"
                assert 0 < doc["retry_after"] <= 5.0
            finally:
                ps.stop()


# ----------------------------------------------------------------------
# liveness vs readiness
# ----------------------------------------------------------------------
class TestHealthSplit:
    def test_livez_stays_up_while_healthz_degrades(self, data_root, monkeypatch):
        monkeypatch.setattr(pool_module, "SPAWN_BACKOFF", 1.0)
        ps = _PoolServer(data_root, workers=2)
        try:
            status, doc = get_json(f"{ps.url}/v1/healthz")
            assert status == 200 and doc["ready"] is True
            assert doc["pool"]["live"] == 2 and doc["pool"]["quorum"] == 2
            # Kill one worker outside any request: the supervisor reaps
            # it from idle; quorum (2 of 2) is lost until the respawn.
            victim = ps.pool._workers[0].proc
            os.kill(victim.pid, signal.SIGKILL)
            assert wait_for(lambda: ps.pool.snapshot()["live"] < 2, timeout=5.0)
            status, doc = get_json(f"{ps.url}/v1/healthz")
            assert status == 503 and doc["status"] == "degraded"
            assert "below_quorum" in doc["degraded_reasons"]
            assert doc["live"] is True  # degraded, not dead
            status, doc = get_json(f"{ps.url}/v1/livez")
            assert status == 200 and doc["live"] is True
            # Readiness recovers without any traffic.
            assert wait_for(lambda: ps.pool.snapshot()["live"] == 2, timeout=10.0)
            status, doc = get_json(f"{ps.url}/v1/healthz")
            assert status == 200 and doc["status"] == "ok"
            assert ps.pool.snapshot()["respawns_total"] >= 1
        finally:
            ps.stop()


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_sigterm_drains_inflight_pool_request(self, data_root):
        with failpoints.inject({"serve.slow_response": "always"}, hang_seconds=0.8):
            pool = WorkerPool(1, max_queue=4, deadline=10.0)
            service = JoinService(root=data_root, pool=pool)
            address = {}
            listening = threading.Event()
            outcome = {}

            def _ready(host, port):
                address.update(host=host, port=port)
                listening.set()

            def _client():
                listening.wait(5)
                url = f"http://{address['host']}:{address['port']}/v1/join"
                outcome["status"], outcome["doc"] = post_json(url, join_payload())

            def _term():
                listening.wait(5)
                wait_for(
                    lambda: pool.admission_snapshot()["inflight"] >= 1, timeout=5.0
                )
                os.kill(os.getpid(), signal.SIGTERM)

            client = threading.Thread(target=_client, daemon=True)
            terminator = threading.Thread(target=_term, daemon=True)
            client.start()
            terminator.start()
            rc = serve(service, "127.0.0.1", 0, quiet=True, ready=_ready)
            client.join(timeout=10)
            terminator.join(timeout=10)
        assert rc == 0  # drained in time
        # The inflight slow request completed, successfully, during drain.
        assert outcome["status"] == 200
        assert outcome["doc"]["results"] == direct_rows(Engine(), data_root)
        snap = pool.snapshot()
        # No respawn fired during shutdown and every worker is gone.
        assert snap["respawns_total"] == 0
        assert snap["failures_total"] == {}
        assert snap["live"] == 0


# ----------------------------------------------------------------------
# the acceptance chaos scenario
# ----------------------------------------------------------------------
class TestMixedChaos:
    def test_mixed_workload_survives_crashes_and_hangs(self, data_root):
        # Requests 1 and 2 crash their worker, request 3 hangs past the
        # deadline; clients retry per Retry-After. The daemon (this
        # process) never restarts, every request eventually succeeds,
        # and results stay byte-identical to a direct Engine.join.
        daemon_pid = os.getpid()
        with failpoints.inject(
            {"serve.worker_crash": "times:2", "serve.worker_hang": "nth:3"}
        ):
            ps = _PoolServer(data_root, workers=2, deadline=1.5)
            try:
                report = run_load(
                    f"{ps.url}/v1/join",
                    join_payload(),
                    clients=3,
                    requests_per_client=4,
                    max_retries=5,
                    retry_seed=42,
                )
                assert os.getpid() == daemon_pid  # zero daemon restarts
                assert report.requests == 12
                assert report.ok == 12, [o for o in report.outcomes if o.status != 200]
                # The three injected faults forced retries, and the
                # summary records them.
                assert report.retries_total >= 3
                assert report.retried_requests >= 1
                summary = report.to_dict()
                assert summary["retries_total"] == report.retries_total
                assert summary["retried_requests"] == report.retried_requests
                # Both failure classes were detected and respawned.
                assert wait_for(lambda: ps.pool.snapshot()["live"] == 2)
                snap = ps.pool.snapshot()
                assert snap["respawns_total"] >= 2
                assert snap["failures_total"].get("worker_crash", 0) >= 2
                assert snap["failures_total"].get("worker_hang", 0) >= 1
                # Post-chaos byte-identity against a direct engine join.
                status, doc = post_json(f"{ps.url}/v1/join", join_payload())
                assert status == 200
                expected = direct_rows(Engine(), data_root)
                assert json.dumps(doc["results"]) == json.dumps(expected)
            finally:
                ps.stop()


class TestPoolUnit:
    def test_pool_requires_positive_size(self):
        with pytest.raises(ValueError, match="size"):
            WorkerPool(0)

    def test_submit_after_close_fails_cleanly(self, data_root):
        pool = WorkerPool(1).start()
        pool.close()
        with pytest.raises(ServiceError) as info:
            pool.submit({"seq": 1, "r": "x", "s": "y"}, endpoint="join")
        assert info.value.reason == "pool_closed"
        pool.close()  # idempotent

    def test_serve_stops_the_workers_when_the_port_is_taken(self, data_root):
        # The service forks its workers before serve() binds; a failed
        # bind must not leave them running for the interpreter's exit
        # to wait on.
        pool = WorkerPool(1).start()
        service = JoinService(root=data_root, pool=pool)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            with pytest.raises(OSError):
                serve(service, "127.0.0.1", taken.getsockname()[1],
                      quiet=True, install_signals=False)
        live = pool.snapshot()["live"]
        pool.close()
        assert live == 0

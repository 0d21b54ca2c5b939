"""The long-lived join service: warm engine workers behind a v1 HTTP API.

``repro serve`` keeps warm-cache :class:`~repro.store.engine.Engine`
workers behind a daemon: a stdlib
:class:`~http.server.ThreadingHTTPServer` whose handler threads are a
thin coordinator — parse, validate, submit, serialize — around a
supervised :class:`~repro.serve.pool.WorkerPool` of forked engine
processes, which is also the one gate: it queues, sheds (429) and
refuses (503). The daemon never runs a join or builds an index itself;
per-dataset circuit breakers (:class:`~repro.serve.breakers.BreakerBoard`)
stand in front of the pool. Every refusal is one
:class:`~repro.serve.schema.ServiceError`. Endpoints:

- ``POST /v1/join`` — run a find-relation join; responds with the
  frozen :meth:`JoinRun.to_wire` envelope plus a ``request_id`` and
  service timing block.
- ``POST /v1/predicate`` — the relate_p variant (predicate required).
- ``POST /v1/build-index`` — build a persistent dataset index on the
  server, so heavy inputs travel once and joins reference them by name.
- ``GET /v1/healthz`` — readiness: admission/pool/breaker snapshot,
  ``503 degraded`` below worker quorum or with an open breaker.
- ``GET /v1/livez`` — pure liveness (always 200 while the daemon runs).
- ``GET /metrics`` — the process metrics registry in Prometheus text
  exposition (the PR 3 exporter, now scrapeable).
- ``GET /v1/runs`` / ``GET /v1/runs/<id>`` — recent request ids, and a
  per-request HTML dashboard (the PR 8 renderer) with the request's own
  span tree — request-id → trace correlation, served live.

Every request is measured: ``repro_serve_requests_total{endpoint,status}``
counters and ``repro_serve_latency_seconds{endpoint}`` histograms (whose
p50/p90/p99 ride the registry's quantile export), on top of the
pool's shed/queue metrics. Graceful drain on
SIGTERM/SIGINT: stop accepting, let in-flight requests finish (bounded),
stop the workers, exit 0.

Datasets are resolved *on the server*, confined to an optional
``root`` directory — a request naming a path outside it is refused.
"""

from __future__ import annotations

import signal
import threading
import time
import uuid
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.obs import get_registry, merge_worker_capture, metrics_enabled
from repro.serve.breakers import BreakerBoard
from repro.serve.pool import WorkerPool
from repro.serve.schema import (
    API_VERSION,
    BuildIndexRequest,
    JoinRequest,
    ServiceError,
    WireError,
    dumps_wire,
    error_document,
    loads_wire,
)

#: Default bind address/port of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Request bodies beyond this are refused with 413 — the service takes
#: dataset *names*, not inline geometry, so real requests are tiny.
MAX_BODY_BYTES = 1 << 20

#: Seconds the graceful drain waits for in-flight work before giving up.
DRAIN_TIMEOUT = 30.0


class JoinService:
    """The HTTP-facing application object (transport-independent).

    Handlers return ``(status, document)`` pairs; the HTTP layer only
    serializes. Tests may drive a service instance directly, or over a
    real socket via :func:`start_server`.

    The service starts its ``pool`` (by default ``WorkerPool(1)``: one
    worker, the pool's default queue and deadline) and :meth:`close`
    stops it; without ``breakers`` it uses a fresh :class:`BreakerBoard`.
    """

    def __init__(
        self,
        *,
        root: str | Path | None = None,
        run_history: int = 64,
        pool: WorkerPool | None = None,
        breakers: BreakerBoard | None = None,
    ) -> None:
        self.pool = (pool or WorkerPool(1)).start()
        self.breakers = breakers or BreakerBoard()
        self.root = Path(root).resolve() if root is not None else None
        self.run_history = run_history
        self.started = time.time()
        self._obs_lock = threading.Lock()
        self._runs: OrderedDict[str, dict] = OrderedDict()
        self._runs_lock = threading.Lock()
        self._counter = 0
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _request_id(self) -> str:
        with self._counter_lock:
            self._counter += 1
            n = self._counter
        return f"{n:06d}-{uuid.uuid4().hex[:8]}"

    def _resolve(self, name: str) -> Path:
        """A request's dataset path, confined to the service root. A
        name the OS cannot represent (an embedded NUL byte, say) is a
        400 like one that escapes the root."""
        if self.root is None:
            return Path(name)
        try:
            path = (self.root / name).resolve()
        except (ValueError, OSError) as exc:
            raise ServiceError(
                400, f"dataset name {name!r} is not a valid path: {exc}"
            ) from exc
        if path != self.root and self.root not in path.parents:
            raise ServiceError(400, f"dataset path {name!r} escapes the service root")
        return path

    def _record_run(self, request_id: str, record: dict) -> None:
        with self._runs_lock:
            self._runs[request_id] = record
            while len(self._runs) > self.run_history:
                self._runs.popitem(last=False)

    def _observe(self, endpoint: str, status: int, seconds: float) -> None:
        if metrics_enabled():
            registry = get_registry()
            registry.inc(
                "repro_serve_requests_total", endpoint=endpoint, status=str(status)
            )
            registry.observe(
                "repro_serve_latency_seconds", seconds, endpoint=endpoint
            )

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _dispatch(
        self, request: dict, endpoint: str, breaker_keys: tuple = ()
    ) -> tuple[dict, list, float, float]:
        """Run one request on a pool worker; returns ``(result, spans,
        queued_seconds, seconds)``.

        The circuits of ``breaker_keys`` admit the request first and
        hear how it ended: a worker's reply (a 4xx included) is a
        success, a crash or hang a failure, and a request that never
        got a verdict (shed 429, ``pool_exhausted``, ``pool_closed``)
        releases its probe. The worker's per-request obs export is
        folded into the daemon's collectors, so ``/metrics`` (warm-path
        proofs included) and the per-request dashboards see its work.
        """
        self.breakers.admit(breaker_keys)
        settle = self.breakers.release
        try:
            reply, queued, seconds = self.pool.submit(request, endpoint=endpoint)
            settle = self.breakers.success
        except ServiceError as exc:
            if exc.reason in ("worker_crash", "worker_hang"):
                settle = self.breakers.failure
            raise
        finally:
            settle(breaker_keys)
        with self._obs_lock:
            spans = merge_worker_capture(reply[-1])
        if reply[0] == "error":
            _tag, status, message, _obs = reply
            raise ServiceError(status, message)
        return reply[1], spans, queued, seconds

    def handle_join(
        self, payload: Any, *, require_predicate: bool = False
    ) -> tuple[int, dict]:
        endpoint = "predicate" if require_predicate else "join"
        request = JoinRequest.from_dict(payload, require_predicate=require_predicate)
        r_path = self._resolve(request.r)
        s_path = self._resolve(request.s)
        request_id = self._request_id()
        response, spans, queued_seconds, service_seconds = self._dispatch(
            {
                "op": "join",
                "r": str(r_path),
                "s": str(s_path),
                "method": request.method,
                "grid_order": request.grid_order,
                "mode": request.mode,
                "predicate": request.predicate,
                "workers": request.workers,
                "include_disjoint": request.include_disjoint,
            },
            endpoint,
            breaker_keys=(request.r, request.s),
        )
        response["request_id"] = request_id
        response["service"] = {
            "seconds": service_seconds,
            "queued_seconds": queued_seconds,
            "endpoint": endpoint,
        }
        self._record_run(
            request_id,
            {
                "kind": "serve_request",
                "method": request.method,
                "stats": response["stats"],
                "spans": spans,
                "meta": {
                    "request_id": request_id,
                    "endpoint": endpoint,
                    "r": str(request.r),
                    "s": str(request.s),
                    "grid_order": request.grid_order,
                    "mode": response["mode"],
                    "links": len(response["results"]),
                    "wall_seconds": response["wall_seconds"],
                    "service_seconds": service_seconds,
                    "queued_seconds": queued_seconds,
                },
            },
        )
        return 200, response

    def handle_build_index(self, payload: Any) -> tuple[int, dict]:
        request = BuildIndexRequest.from_dict(payload)
        data = self._resolve(request.data)
        index = self._resolve(request.index)
        request_id = self._request_id()
        built, _spans, _queued, seconds = self._dispatch(
            {
                "op": "build-index",
                "data": str(data),
                "index": str(index),
                "grid_order": request.grid_order if request.approximate else None,
                "workers": request.workers,
            },
            "build-index",
        )
        return 200, {
            "api_version": API_VERSION,
            "request_id": request_id,
            "index": str(index),
            "geometries": built["geometries"],
            "payload_codec": built["payload_codec"],
            "seconds": seconds,
        }

    def livez(self) -> tuple[int, dict]:
        """Pure liveness: the daemon process is up and answering HTTP.

        Always 200 — worker deaths and open breakers degrade
        *readiness* (:meth:`healthz`), never liveness; a supervisor
        keying restarts off this endpoint must not bounce a daemon that
        is busy healing itself.
        """
        return 200, {"status": "ok", "api_version": API_VERSION, "live": True}

    def healthz(self) -> tuple[int, dict]:
        """Liveness *and* readiness. 503 ``degraded`` when the pool is
        below quorum or any dataset circuit breaker is open — the
        signal for load balancers to route around this replica while it
        recovers."""
        from repro import __version__

        degraded_reasons = []
        pool_snapshot = self.pool.snapshot()
        if pool_snapshot["live"] < pool_snapshot["quorum"]:
            degraded_reasons.append("below_quorum")
        breaker_states = self.breakers.states()
        if any(state != "closed" for state in breaker_states.values()):
            degraded_reasons.append("breaker_open")
        ready = not degraded_reasons
        document = {
            "status": "ok" if ready else "degraded",
            "api_version": API_VERSION,
            "version": __version__,
            "live": True,
            "ready": ready,
            "uptime_seconds": time.time() - self.started,
            "admission": self.pool.admission_snapshot(),
            "runs_recorded": len(self._runs),
            "pool": pool_snapshot,
            "breakers": breaker_states,
        }
        if degraded_reasons:
            document["degraded_reasons"] = degraded_reasons
        return (200 if ready else 503), document

    def run_ids(self) -> tuple[int, dict]:
        with self._runs_lock:
            ids = list(self._runs)
        return 200, {"api_version": API_VERSION, "runs": ids}

    def run_dashboard(self, request_id: str) -> str:
        """The stored request's observability record as an HTML page."""
        from repro.obs.dashboard import render_dashboard

        with self._runs_lock:
            record = self._runs.get(request_id)
        if record is None:
            raise ServiceError(404, f"no recorded run {request_id!r}")
        return render_dashboard([record], title=f"repro serve · run {request_id}")

    def close(self) -> None:
        """Stop the worker pool (idempotent). A worker mid-request gets
        its polite stop only after the drain (:meth:`WorkerPool.wait_idle`)
        already emptied the pipeline, and no respawn fires once shutdown
        began."""
        self.pool.close()


# ----------------------------------------------------------------------
# the HTTP transport
# ----------------------------------------------------------------------
class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its :class:`JoinService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: JoinService, *, quiet: bool = False) -> None:
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)


def _endpoint_label(path: str) -> str:
    """Short endpoint label for metrics, consistent with the pool's
    (``/v1/join`` → ``join``; dashboard ids collapse to
    ``runs`` so the label set stays bounded)."""
    if path.startswith("/v1/runs"):
        return "runs"
    if path == "/metrics":
        return "metrics"
    if path.startswith("/v1/"):
        return path[len("/v1/"):] or "unknown"
    return "unknown"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Headers and body leave as two writes; with Nagle on, the kernel
    #: holds the second until the client's delayed ACK of the first
    #: (~40 ms on every response).
    disable_nagle_algorithm = True
    server: ServiceServer

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str, **headers) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-"), str(value))
        self.end_headers()
        self.wfile.write(body)

    def _json_bytes(self, document: dict) -> bytes:
        return (dumps_wire(document) + "\n").encode("utf-8")

    def _error_bytes(self, status: int, message: str) -> bytes:
        return self._json_bytes(error_document(status, message))

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # Drain (bounded) what the client is mid-way through
            # sending, so the 413 reaches it instead of a broken pipe;
            # truly huge declarations just get the connection closed.
            remaining = min(length, 8 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            raise ServiceError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        return self.rfile.read(length) if length else b"{}"

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        service = self.server.service
        t0 = time.perf_counter()
        status, body, content_type = 500, b"", "application/json"
        try:
            if self.path == "/v1/healthz":
                status, doc = service.healthz()
                body = self._json_bytes(doc)
            elif self.path == "/v1/livez":
                status, doc = service.livez()
                body = self._json_bytes(doc)
            elif self.path == "/metrics":
                status = 200
                body = get_registry().to_prometheus().encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif self.path == "/v1/runs":
                status, doc = service.run_ids()
                body = self._json_bytes(doc)
            elif self.path.startswith("/v1/runs/"):
                html = service.run_dashboard(self.path[len("/v1/runs/"):])
                status = 200
                body = html.encode("utf-8")
                content_type = "text/html; charset=utf-8"
            else:
                status = 404
                body = self._error_bytes(404, f"unknown path {self.path!r}")
        except ServiceError as exc:
            status = exc.status
            body = self._error_bytes(exc.status, str(exc))
            content_type = "application/json"
        # Observe before the response bytes leave: a client holding our
        # response and scraping /metrics must already see this request
        # counted (the scrape itself shows up in the *next* scrape).
        service._observe(
            _endpoint_label(self.path), status, time.perf_counter() - t0
        )
        self._send(status, body, content_type)

    def do_POST(self) -> None:  # noqa: N802
        service = self.server.service
        t0 = time.perf_counter()
        status, body, headers = 500, b"", {}
        try:
            payload = loads_wire(self._read_body())
            if self.path == "/v1/join":
                status, doc = service.handle_join(payload)
            elif self.path == "/v1/predicate":
                status, doc = service.handle_join(payload, require_predicate=True)
            elif self.path == "/v1/build-index":
                status, doc = service.handle_build_index(payload)
            else:
                raise ServiceError(404, f"unknown path {self.path!r}")
            body = self._json_bytes(doc)
        except WireError as exc:
            status = 400
            body = self._error_bytes(400, str(exc))
        except ServiceError as exc:
            status = exc.status
            body = self._json_bytes(error_document(
                exc.status, str(exc), reason=exc.reason, retry_after=exc.retry_after
            ))
            if exc.retry_after is not None:
                headers = {"Retry_After": max(1, round(exc.retry_after))}
        except Exception as exc:  # pragma: no cover - defensive 500
            status = 500
            body = self._error_bytes(500, f"internal error: {exc}")
        # Same ordering rule as do_GET: count, then respond.
        service._observe(
            _endpoint_label(self.path), status, time.perf_counter() - t0
        )
        self._send(status, body, "application/json", **headers)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def start_server(
    service: JoinService,
    host: str = DEFAULT_HOST,
    port: int = 0,
    *,
    quiet: bool = True,
) -> tuple[ServiceServer, threading.Thread]:
    """Start the server on a background thread (``port=0`` picks a free
    one — read it back from ``server.server_address``). The caller owns
    shutdown: :func:`stop_server`."""
    server = ServiceServer((host, port), service, quiet=quiet)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, thread


def stop_server(
    server: ServiceServer,
    thread: threading.Thread | None = None,
    *,
    drain_timeout: float = DRAIN_TIMEOUT,
) -> bool:
    """Graceful shutdown: stop accepting, drain in-flight work, stop
    the workers. Returns True when the drain completed in time."""
    server.shutdown()
    drained = server.service.pool.wait_idle(drain_timeout)
    server.server_close()
    if thread is not None:
        thread.join(timeout=drain_timeout)
    server.service.close()
    return drained


def serve(
    service: JoinService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    quiet: bool = False,
    install_signals: bool = True,
    ready=None,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    The blocking entry point behind ``repro serve``. ``ready`` (if
    given) is called with the bound ``(host, port)`` once the socket
    listens — tests use it; the CLI prints the URL. The service is
    closed on the way out, also when the address cannot be bound.
    """
    try:
        server = ServiceServer((host, port), service, quiet=quiet)
    except OSError:
        service.close()
        raise
    stop_requested = threading.Event()

    def _request_stop(signum, frame) -> None:
        if not stop_requested.is_set():
            stop_requested.set()
            # shutdown() must come from another thread than serve_forever.
            threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    if install_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _request_stop)
    try:
        if ready is not None:
            ready(server.server_address[0], server.server_address[1])
        server.serve_forever()
        drained = server.service.pool.wait_idle(DRAIN_TIMEOUT)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
        server.service.close()
    return 0 if drained else 1


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DRAIN_TIMEOUT",
    "MAX_BODY_BYTES",
    "JoinService",
    "ServiceServer",
    "serve",
    "start_server",
    "stop_server",
]

"""``repro.serve`` — the long-lived join service over warm engine workers.

A zero-dependency daemon (stdlib :class:`~http.server.ThreadingHTTPServer`)
that runs every join and index build in a supervised pool of forked
workers, each keeping one memoised :class:`~repro.store.engine.Engine`
warm, and speaks the frozen v1 wire API (:mod:`repro.serve.schema`).
Start it with ``python -m repro serve`` or embed it:

    from repro.serve import AdmissionController, JoinService, start_server

    service = JoinService(root="indexes/")
    server, thread = start_server(service, port=0)

Package layout: :mod:`~repro.serve.schema` (the frozen wire contract),
:mod:`~repro.serve.admission` (bounded queue + 429 load shedding +
per-dataset circuit breakers), :mod:`~repro.serve.pool` (supervised
forked engine workers: crash/hang isolation, respawn with backoff),
:mod:`~repro.serve.service` (endpoints, HTTP transport, graceful
drain).
"""

from repro.serve.admission import (
    AdmissionController,
    BreakerBoard,
    BreakerOpen,
    CircuitBreaker,
    ShedError,
    Ticket,
)
from repro.serve.pool import WorkerFailure, WorkerPool
from repro.serve.schema import (
    API_VERSION,
    BuildIndexRequest,
    ERROR_REASONS,
    JoinRequest,
    WireError,
    dumps_wire,
    error_document,
    loads_wire,
    validate_wire_run,
)
from repro.serve.service import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    JoinService,
    ServiceError,
    serve,
    start_server,
    stop_server,
)

__all__ = [
    "API_VERSION",
    "AdmissionController",
    "BreakerBoard",
    "BreakerOpen",
    "BuildIndexRequest",
    "CircuitBreaker",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ERROR_REASONS",
    "JoinRequest",
    "JoinService",
    "ServiceError",
    "ShedError",
    "Ticket",
    "WireError",
    "WorkerFailure",
    "WorkerPool",
    "dumps_wire",
    "error_document",
    "loads_wire",
    "serve",
    "start_server",
    "stop_server",
    "validate_wire_run",
]

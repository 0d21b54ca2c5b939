"""``repro.serve`` — the long-lived join service over warm engine workers.

A zero-dependency daemon (stdlib :class:`~http.server.ThreadingHTTPServer`)
that runs every join and index build in a supervised pool of forked
workers, each keeping one memoised :class:`~repro.store.engine.Engine`
warm, and speaks the frozen v1 wire API (:mod:`repro.serve.schema`).
Start it with ``python -m repro serve`` or embed it:

    from repro.serve import JoinService, WorkerPool, start_server

    service = JoinService(
        root="indexes/", pool=WorkerPool(1, max_queue=8, deadline=300.0)
    )
    server, thread = start_server(service, port=0)

Package layout: :mod:`~repro.serve.schema` (the frozen wire contract
and :class:`ServiceError`, the one refusal type),
:mod:`~repro.serve.pool` (supervised forked engine workers and the one
gate in front of them: bounded queue, 429 load shedding, crash/hang
isolation, respawn with backoff), :mod:`~repro.serve.breakers`
(per-dataset circuit breakers), :mod:`~repro.serve.service`
(endpoints, HTTP transport, graceful drain).
"""

from repro.serve.breakers import BreakerBoard, CircuitBreaker
from repro.serve.pool import WorkerPool
from repro.serve.schema import (
    API_VERSION,
    BuildIndexRequest,
    ERROR_REASONS,
    JoinRequest,
    ServiceError,
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
    serve,
    start_server,
    stop_server,
)

__all__ = [
    "API_VERSION",
    "BreakerBoard",
    "BuildIndexRequest",
    "CircuitBreaker",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ERROR_REASONS",
    "JoinRequest",
    "JoinService",
    "ServiceError",
    "WireError",
    "WorkerPool",
    "dumps_wire",
    "error_document",
    "loads_wire",
    "serve",
    "start_server",
    "stop_server",
    "validate_wire_run",
]

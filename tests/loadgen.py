"""Closed-loop load generator and JSON client for the join service tests.

The test-side companion of :mod:`repro.serve.service`: ``clients``
threads issue requests back-to-back (closed loop — each client waits
for its response before sending the next), so offered load is
``clients / service_time`` and overload is created by raising the
client count past what one warm engine absorbs. Per-request outcomes
are kept raw; :class:`LoadReport` reduces them to the numbers the
serving literature reports — p50/p95/p99 latency (exact order
statistics over the sample, not histogram-bucket approximations),
throughput, and the shed rate (fraction answered ``429``).

The service tests drive this against a server on a loopback socket;
the end-to-end serving numbers come from ``python3 bench/run.py``,
which has its own client. Stdlib-only (``urllib`` transport).
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from repro.serve.schema import dumps_wire

#: Per-request socket timeout; generous — overload shows up as 429s,
#: not client-side timeouts, because the service sheds instead of
#: queueing without bound.
REQUEST_TIMEOUT = 120.0

#: Upper bound on one retry sleep: a server asking for a long cooldown
#: still gets re-probed within this window during a load run.
RETRY_SLEEP_CAP = 5.0

#: Statuses that invite a retry: admission shed (429) and transient
#: service unavailability (503 — worker failure, open breaker,
#: exhausted pool). Client errors never retry.
RETRYABLE_STATUSES = (429, 503)


@dataclass
class RequestOutcome:
    """One request as the client saw it (after any retries)."""

    status: int
    seconds: float
    shed: bool
    error: str | None = None
    #: Retries spent before this final status (0 = first try stood).
    retries: int = 0


def post_json(url: str, payload: dict, timeout: float = REQUEST_TIMEOUT) -> tuple[int, dict]:
    """POST a wire document, returning ``(status, response_document)``.

    HTTP error statuses are returned, not raised — a 429 is data for
    the load report, not an exception. A ``Retry-After`` response
    header is folded into the document as ``retry_after`` when the body
    itself lacks one, so callers have a single place to look.
    """
    body = dumps_wire(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode("utf-8", errors="replace")
        try:
            document = json.loads(raw)
        except ValueError:
            document = {"error": raw}
        if "retry_after" not in document:
            header = exc.headers.get("Retry-After") if exc.headers else None
            if header is not None:
                try:
                    document["retry_after"] = float(header)
                except ValueError:
                    pass
        return exc.code, document


def get_json(url: str, timeout: float = REQUEST_TIMEOUT) -> tuple[int, dict]:
    """GET a wire document (health checks, run listings)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _quantile(ordered: list[float], q: float) -> float:
    """Exact nearest-rank quantile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class LoadReport:
    """What a load run measured, reduced to reportable numbers."""

    clients: int
    requests: int
    ok: int
    shed: int
    errors: int
    wall_seconds: float
    p50_seconds: float
    p95_seconds: float
    p99_seconds: float
    mean_seconds: float
    #: Total retry attempts spent across the run, and how many requests
    #: needed at least one (``Retry-After``-honouring clients only).
    retries_total: int = 0
    retried_requests: int = 0
    outcomes: list[RequestOutcome] = field(repr=False, default_factory=list)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed (non-shed) requests per second of wall time."""
        return self.ok / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "shed_rate": round(self.shed_rate, 4),
            "wall_seconds": self.wall_seconds,
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_p50_ms": round(self.p50_seconds * 1e3, 3),
            "latency_p95_ms": round(self.p95_seconds * 1e3, 3),
            "latency_p99_ms": round(self.p99_seconds * 1e3, 3),
            "latency_mean_ms": round(self.mean_seconds * 1e3, 3),
            "retries_total": self.retries_total,
            "retried_requests": self.retried_requests,
        }

    @classmethod
    def from_outcomes(
        cls, outcomes: list[RequestOutcome], clients: int, wall_seconds: float
    ) -> "LoadReport":
        ok = [o for o in outcomes if o.status == 200]
        latencies = sorted(o.seconds for o in ok)
        mean = sum(latencies) / len(latencies) if latencies else 0.0
        return cls(
            clients=clients,
            requests=len(outcomes),
            ok=len(ok),
            shed=sum(1 for o in outcomes if o.shed),
            errors=sum(1 for o in outcomes if o.error is not None),
            wall_seconds=wall_seconds,
            p50_seconds=_quantile(latencies, 0.50),
            p95_seconds=_quantile(latencies, 0.95),
            p99_seconds=_quantile(latencies, 0.99),
            mean_seconds=mean,
            retries_total=sum(o.retries for o in outcomes),
            retried_requests=sum(1 for o in outcomes if o.retries),
            outcomes=outcomes,
        )


def run_load(
    url: str,
    payload: dict,
    *,
    clients: int = 4,
    requests_per_client: int = 8,
    timeout: float = REQUEST_TIMEOUT,
    max_retries: int = 0,
    retry_seed: int = 0,
) -> LoadReport:
    """Drive ``clients`` closed-loop threads against ``url``.

    All clients start together (barrier), each posts ``payload``
    ``requests_per_client`` times back-to-back, and every outcome —
    success, shed, transport error — is recorded with its latency.

    With ``max_retries > 0`` a 429/503 answer is retried up to that
    many times, honouring the server's ``Retry-After`` hint (body
    ``retry_after`` field or header) with ±25% deterministic jitter
    (seeded per client, so replays sleep identically) and a
    :data:`RETRY_SLEEP_CAP` bound. The recorded latency covers the
    whole exchange including backoff sleeps — what the caller actually
    waited.
    """
    outcomes: list[RequestOutcome] = []
    outcomes_lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def _client(index: int) -> None:
        rng = random.Random((retry_seed << 8) | index)
        barrier.wait()
        local = []
        for _ in range(requests_per_client):
            t0 = time.perf_counter()
            retries = 0
            try:
                while True:
                    status, document = post_json(url, payload, timeout=timeout)
                    if status not in RETRYABLE_STATUSES or retries >= max_retries:
                        break
                    hint = document.get("retry_after")
                    try:
                        delay = float(hint)
                    except (TypeError, ValueError):
                        delay = 1.0
                    delay = min(RETRY_SLEEP_CAP, max(0.05, delay))
                    time.sleep(delay * rng.uniform(0.75, 1.25))
                    retries += 1
                local.append(
                    RequestOutcome(
                        status=status,
                        seconds=time.perf_counter() - t0,
                        shed=status == 429,
                        retries=retries,
                    )
                )
            except Exception as exc:  # transport failure, not an HTTP status
                local.append(
                    RequestOutcome(
                        status=0,
                        seconds=time.perf_counter() - t0,
                        shed=False,
                        error=str(exc),
                        retries=retries,
                    )
                )
        with outcomes_lock:
            outcomes.extend(local)

    threads = [
        threading.Thread(target=_client, args=(i,), name=f"loadgen-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    return LoadReport.from_outcomes(outcomes, clients, wall)


__all__ = [
    "LoadReport",
    "RequestOutcome",
    "get_json",
    "post_json",
    "run_load",
]

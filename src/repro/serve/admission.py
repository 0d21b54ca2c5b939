"""Admission control for the join service: bounded queue + load shedding.

The serving model is the partition-parallel one (Tsitsigkos &
Mamoulis): long-lived workers own warm state, a thin coordinator admits
requests. Warm joins are CPU-bound, so letting an unbounded backlog
build only converts overload into unbounded latency; instead the
controller holds a hard cap on concurrently *executing* requests
(``max_inflight`` — the daemon runs one engine worker per slot) and a
hard cap on *waiting* requests (``max_queue``).
Everything beyond either bound is shed immediately with ``429`` — the
client's signal to back off — rather than queued into timeout.

A queued request also carries its endpoint's **deadline** (default: the
supervisor's :data:`~repro.resilience.supervisor.DEFAULT_PARTITION_TIMEOUT`,
the same knob that bounds parallel partitions): if its turn has not
come when the deadline lapses, it is shed too, and whatever budget
remains at admission travels with the ticket so the handler can pass it
down as the engine's ``partition_timeout``.

Every decision is observable: ``repro_serve_requests_total`` /
``repro_serve_shed_total`` counters (by endpoint/reason),
``repro_serve_inflight`` and ``repro_serve_queue_wait_seconds``
histograms. Stdlib-only; thread-safe.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.metrics import get_registry, metrics_enabled
from repro.resilience.supervisor import DEFAULT_PARTITION_TIMEOUT


class ShedError(RuntimeError):
    """The controller refused the request (maps to HTTP 429).

    ``reason`` is ``"queue_full"`` (bound hit at arrival) or
    ``"deadline"`` (turn never came); ``retry_after`` is a coarse
    client hint in seconds.
    """

    def __init__(self, endpoint: str, reason: str, retry_after: float = 1.0) -> None:
        super().__init__(f"{endpoint}: shed ({reason})")
        self.endpoint = endpoint
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class Ticket:
    """One admitted request: what it waited and what budget remains."""

    endpoint: str
    queued_seconds: float
    #: Seconds of the endpoint deadline left at admission; handlers
    #: forward it as the execution-layer timeout.
    remaining_seconds: float


class AdmissionController:
    """Bounded-concurrency gate with deadline-aware queueing."""

    def __init__(
        self,
        *,
        max_inflight: int = 1,
        max_queue: int = 8,
        deadlines: dict[str, float] | None = None,
        default_deadline: float = DEFAULT_PARTITION_TIMEOUT,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.default_deadline = float(default_deadline)
        self.deadlines = dict(deadlines or {})
        self._lock = threading.Lock()
        self._turn = threading.Condition(self._lock)
        self._inflight = 0
        self._queued = 0
        #: Monotonic totals (also exported as metrics when enabled).
        self.admitted_total = 0
        self.shed_total = 0

    # ------------------------------------------------------------------
    def deadline(self, endpoint: str) -> float:
        """The endpoint's request deadline in seconds."""
        return float(self.deadlines.get(endpoint, self.default_deadline))

    def snapshot(self) -> dict:
        """Instantaneous state for health checks."""
        with self._lock:
            return {
                "inflight": self._inflight,
                "queued": self._queued,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
            }

    def idle(self) -> bool:
        with self._lock:
            return self._inflight == 0 and self._queued == 0

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is queued or executing (the graceful
        drain step); returns False if ``timeout`` lapsed first."""
        end = time.monotonic() + timeout
        with self._turn:
            while self._inflight or self._queued:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._turn.wait(remaining)
            return True

    # ------------------------------------------------------------------
    def _shed(self, endpoint: str, reason: str) -> ShedError:
        self.shed_total += 1
        if metrics_enabled():
            get_registry().inc(
                "repro_serve_shed_total", endpoint=endpoint, reason=reason
            )
        return ShedError(endpoint, reason)

    @contextmanager
    def admit(self, endpoint: str):
        """Admit one request, yielding its :class:`Ticket`.

        Raises :class:`ShedError` when the queue bound is hit on
        arrival or the endpoint deadline lapses while waiting. The
        context must wrap the whole execution: release happens on exit.
        """
        deadline = self.deadline(endpoint)
        t0 = time.monotonic()
        with self._lock:
            if self._inflight >= self.max_inflight and self._queued >= self.max_queue:
                raise self._shed(endpoint, "queue_full")
            self._queued += 1
            try:
                while self._inflight >= self.max_inflight:
                    remaining = deadline - (time.monotonic() - t0)
                    if remaining <= 0:
                        raise self._shed(endpoint, "deadline")
                    self._turn.wait(remaining)
                self._inflight += 1
                self.admitted_total += 1
                inflight_now = self._inflight
            finally:
                self._queued -= 1
        queued_seconds = time.monotonic() - t0
        if metrics_enabled():
            registry = get_registry()
            registry.observe("repro_serve_inflight", inflight_now)
            registry.observe(
                "repro_serve_queue_wait_seconds", queued_seconds, endpoint=endpoint
            )
        try:
            yield Ticket(
                endpoint=endpoint,
                queued_seconds=queued_seconds,
                remaining_seconds=max(0.0, deadline - queued_seconds),
            )
        finally:
            with self._turn:
                self._inflight -= 1
                self._turn.notify_all()


# ----------------------------------------------------------------------
# per-dataset circuit breakers
# ----------------------------------------------------------------------
#: Numeric encoding of breaker states for the
#: ``repro_serve_breaker_state`` metric (a histogram observation per
#: transition: the latest sample is the current state).
BREAKER_STATES = {"closed": 0, "half_open": 1, "open": 2}

#: Consecutive worker failures that open a dataset's circuit, and the
#: seconds it then stays open before a half-open probe — the daemon's
#: breakers always use these.
DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_COOLDOWN = 5.0


class BreakerOpen(RuntimeError):
    """The dataset's circuit is open (maps to a fast HTTP 503)."""

    def __init__(self, dataset: str, retry_after: float) -> None:
        super().__init__(
            f"circuit breaker open for dataset {dataset!r}; retry in "
            f"{retry_after:.1f}s"
        )
        self.dataset = dataset
        self.retry_after = retry_after


class CircuitBreaker:
    """One dataset's failure circuit: closed → open → half-open → closed.

    ``threshold`` *consecutive* worker failures (crashes/hangs — never
    client errors) open the circuit; while open, requests are refused
    immediately with a ``Retry-After`` covering the remaining
    ``cooldown``. After the cooldown one **probe** request is admitted
    (half-open); its success closes the circuit, its failure reopens it
    for a fresh cooldown. Not thread-safe on its own — the owning
    :class:`BreakerBoard` serialises access.
    """

    def __init__(self, threshold: int, cooldown: float) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.probe_inflight = False

    def refusal(self, now: float) -> float | None:
        """Seconds the caller should wait before retrying, or ``None``
        when a request may pass (does not commit the probe)."""
        if self.state == "closed":
            return None
        if self.state == "open":
            remaining = self.cooldown - (now - self.opened_at)
            return max(0.1, remaining) if remaining > 0 else None
        # half-open: exactly one probe at a time
        return max(0.1, self.cooldown / 2) if self.probe_inflight else None

    def commit(self, now: float) -> None:
        """Admit one request (after :meth:`refusal` returned ``None``):
        an open circuit past its cooldown turns half-open with this
        request as the probe."""
        if self.state == "open":
            self.state = "half_open"
            self.probe_inflight = True
        elif self.state == "half_open":
            self.probe_inflight = True

    def success(self) -> None:
        self.failures = 0
        self.probe_inflight = False
        self.state = "closed"

    def failure(self, now: float) -> None:
        self.failures += 1
        self.probe_inflight = False
        if self.state == "half_open" or self.failures >= self.threshold:
            self.state = "open"
            self.opened_at = now


class BreakerBoard:
    """Per-dataset circuit breakers for the serving layer.

    Keyed by the request's wire dataset names (``r`` and ``s``
    separately — a crash cannot be attributed to one side, so both
    circuits record it). The board is bounded: beyond ``max_keys``
    datasets, the least-recently-used circuit is evicted (closed ones
    first), keeping the metric label set finite under hostile clients.
    """

    def __init__(
        self,
        *,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        max_keys: int = 64,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = float(cooldown)
        self.max_keys = max_keys
        self._lock = threading.Lock()
        self._breakers: OrderedDict[str, CircuitBreaker] = OrderedDict()

    def _breaker(self, key: str) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(
                self.threshold, self.cooldown
            )
            while len(self._breakers) > self.max_keys:
                victims = [
                    k for k, b in self._breakers.items() if b.state == "closed"
                ]
                evict = victims[0] if victims else next(iter(self._breakers))
                del self._breakers[evict]
        else:
            self._breakers.move_to_end(key)
        return breaker

    def _transition(self, key: str, breaker: CircuitBreaker, before: str) -> None:
        if breaker.state != before and metrics_enabled():
            registry = get_registry()
            registry.observe(
                "repro_serve_breaker_state", BREAKER_STATES[breaker.state], dataset=key
            )
            registry.inc(
                "repro_serve_breaker_transitions_total",
                dataset=key,
                to=breaker.state,
            )

    def admit(self, keys) -> None:
        """Let a request through, or raise :class:`BreakerOpen` for the
        first key whose circuit refuses. Probes are committed only when
        every key admits, so a refusal never leaks a half-open slot."""
        now = time.monotonic()
        with self._lock:
            breakers = [(key, self._breaker(key)) for key in dict.fromkeys(keys)]
            for key, breaker in breakers:
                retry_after = breaker.refusal(now)
                if retry_after is not None:
                    if metrics_enabled():
                        get_registry().inc(
                            "repro_serve_shed_total",
                            endpoint="join",
                            reason="breaker_open",
                        )
                    raise BreakerOpen(key, retry_after)
            for key, breaker in breakers:
                before = breaker.state
                breaker.commit(now)
                self._transition(key, breaker, before)

    def success(self, keys) -> None:
        with self._lock:
            for key in dict.fromkeys(keys):
                breaker = self._breakers.get(key)
                if breaker is not None:
                    before = breaker.state
                    breaker.success()
                    self._transition(key, breaker, before)

    def failure(self, keys) -> None:
        now = time.monotonic()
        with self._lock:
            for key in dict.fromkeys(keys):
                breaker = self._breaker(key)
                before = breaker.state
                breaker.failure(now)
                self._transition(key, breaker, before)

    def states(self) -> dict[str, str]:
        with self._lock:
            return {key: b.state for key, b in sorted(self._breakers.items())}

    def any_open(self) -> bool:
        with self._lock:
            return any(b.state != "closed" for b in self._breakers.values())


__all__ = [
    "AdmissionController",
    "BREAKER_STATES",
    "BreakerBoard",
    "BreakerOpen",
    "CircuitBreaker",
    "DEFAULT_BREAKER_COOLDOWN",
    "DEFAULT_BREAKER_THRESHOLD",
    "ShedError",
    "Ticket",
]

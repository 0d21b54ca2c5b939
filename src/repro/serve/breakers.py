"""Per-dataset circuit breakers for the join service.

A dataset whose joins keep crashing or hanging their worker gets its
circuit opened: requests naming it are refused at once with a 503
instead of sacrificing another worker to a poisoned input. Every
decision is observable (``repro_serve_breaker_state``,
``repro_serve_breaker_transitions_total``, and
``repro_serve_shed_total{reason="breaker_open"}``). Stdlib-only;
thread-safe.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.obs.metrics import get_registry, metrics_enabled
from repro.serve.schema import ServiceError

#: Numeric encoding of breaker states for the
#: ``repro_serve_breaker_state`` metric (a histogram observation per
#: transition: the latest sample is the current state).
BREAKER_STATES = {"closed": 0, "half_open": 1, "open": 2}

#: Consecutive worker failures that open a dataset's circuit, and the
#: seconds it then stays open before a half-open probe.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 5.0

#: Circuits a board keeps; beyond it the least-recently-used one goes
#: (closed ones first), keeping the metric label set finite under
#: hostile clients.
BREAKER_MAX_KEYS = 64


class CircuitBreaker:
    """One dataset's failure circuit: closed → open → half-open → closed.

    ``threshold`` *consecutive* worker failures (crashes/hangs — never
    client errors) open the circuit; while open, requests are refused
    immediately with a ``Retry-After`` covering the remaining
    ``cooldown``. After the cooldown one **probe** request is admitted
    (half-open); its success closes the circuit, its failure reopens it
    for a fresh cooldown, and a probe that never reached a worker is
    released so the next request probes instead. Not thread-safe on its
    own — the owning :class:`BreakerBoard` serialises access.
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

    def release(self) -> None:
        """The admitted request ended without a worker's verdict (shed,
        no live worker, drain): free the probe slot, change nothing else."""
        self.probe_inflight = False


class BreakerBoard:
    """Per-dataset circuit breakers for the serving layer.

    Keyed by the request's wire dataset names (``r`` and ``s``
    separately — a crash cannot be attributed to one side, so both
    circuits record it), with :data:`BREAKER_THRESHOLD` and
    :data:`BREAKER_COOLDOWN` for every circuit and at most
    :data:`BREAKER_MAX_KEYS` circuits. Every request that passed
    :meth:`admit` must end in exactly one of :meth:`success`,
    :meth:`failure` or :meth:`release`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._breakers: OrderedDict[str, CircuitBreaker] = OrderedDict()

    def _breaker(self, key: str) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(
                BREAKER_THRESHOLD, BREAKER_COOLDOWN
            )
            while len(self._breakers) > BREAKER_MAX_KEYS:
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
        """Let a request through, or raise a 503 ``breaker_open``
        :class:`ServiceError` for the first key whose circuit refuses.
        Probes are committed only when every key admits, so a refusal
        never leaks a half-open slot."""
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
                    raise ServiceError(
                        503,
                        f"circuit breaker open for dataset {key!r}; retry in "
                        f"{retry_after:.1f}s",
                        reason="breaker_open",
                        retry_after=retry_after,
                    )
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

    def release(self, keys) -> None:
        with self._lock:
            for key in dict.fromkeys(keys):
                breaker = self._breakers.get(key)
                if breaker is not None:
                    breaker.release()

    def states(self) -> dict[str, str]:
        with self._lock:
            return {key: b.state for key, b in sorted(self._breakers.items())}

    def any_open(self) -> bool:
        with self._lock:
            return any(b.state != "closed" for b in self._breakers.values())


__all__ = [
    "BREAKER_COOLDOWN",
    "BREAKER_MAX_KEYS",
    "BREAKER_STATES",
    "BREAKER_THRESHOLD",
    "BreakerBoard",
    "CircuitBreaker",
]

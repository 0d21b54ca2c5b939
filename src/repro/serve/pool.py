"""Supervised engine-worker pool: the join service's one gate.

The serving model is the partition-parallel one (Tsitsigkos &
Mamoulis): long-lived workers own warm state, a thin coordinator admits
requests. A :class:`WorkerPool` owns N long-lived slots, each one
:class:`~repro.resilience.worker.SupervisedWorker` (the primitive
``supervised_map`` runs batch fan-outs on) speaking a private duplex
pipe; the pool adds what is policy — the idle list and its bounded
queue, per-slot respawn backoff, quorum, the failure vocabulary. Every
join and index build the daemon answers runs in one of these workers,
which builds its own :class:`~repro.store.engine.Engine` on its first
join and keeps it warm. The HTTP handler threads stay a thin
coordinator: validate, submit to the pool, relay the reply.

The idle list is the admission gate. Warm joins are CPU-bound, so an
unbounded backlog only converts overload into unbounded latency:

- A request takes an idle live worker or, if fewer than ``max_queue``
  requests already wait, waits for one — woken by the release that
  frees it. An arrival beyond that bound gets ``429 queue_full``.
- ``deadline`` bounds the whole request: a waiter whose deadline lapses
  gets ``429 deadline``; what remains once it holds a worker bounds the
  wait for the reply and is the engine's ``partition_timeout``.
- An arrival that finds no live worker (every slot awaiting its
  respawn) gets ``503 pool_exhausted`` at once, with the earliest
  respawn as ``retry_after``; a waiter keeps its place for the respawn.
  Once :meth:`WorkerPool.close` began: ``503 pool_closed``.

What the workers buy:

- **Crashes don't take the daemon.** A worker SIGKILLed mid-request
  (OOM killer, armed ``serve.worker_crash`` failpoint) closes its pipe;
  the dispatching thread sees EOF, answers *that one request* with
  ``503 worker_crash``, and the supervisor respawns the slot with
  exponential backoff.
- **Hangs don't either.** Past the request's remaining deadline the
  worker is SIGKILLed, the request answered ``503 worker_hang`` and the
  slot respawned (``serve.worker_hang`` exercises this).
- **True concurrency.** ``--max-inflight N`` over N worker processes
  genuinely parallelises warm joins on multi-core boxes.
- **No fork from a busy process.** A request that asks for ``workers >
  1`` forks its fan-out from a single-threaded worker, never from the
  threaded daemon.

Results stay byte-identical to a direct :meth:`Engine.join`: the worker
returns the frozen ``run.to_wire()`` document and the daemon
serializes it with the deterministic :func:`dumps_wire`. Workers also
export their per-request obs state (spans, metrics, profile, resources),
which the service folds into the daemon registry. Every refusal is a
:class:`~repro.serve.schema.ServiceError`; every decision is observable
(``repro_serve_shed_total`` by endpoint and reason,
``repro_serve_inflight``, ``repro_serve_queue_wait_seconds`` and the
worker counters). Stdlib-only; fork start method (POSIX).
"""

from __future__ import annotations

import logging
import threading
import time

from repro.obs import (
    begin_worker_capture,
    export_worker_capture,
    get_registry,
    metrics_enabled,
)
from repro.resilience import failpoints
from repro.resilience.supervisor import DEFAULT_PARTITION_TIMEOUT
from repro.resilience.worker import SupervisedWorker, WorkerDied, WorkerError
from repro.serve.schema import ServiceError, parse_predicate

log = logging.getLogger("repro.serve")

#: First respawn delay after a worker failure; doubles per consecutive
#: failure of the same slot up to :data:`MAX_SPAWN_BACKOFF`.
SPAWN_BACKOFF = 0.1
MAX_SPAWN_BACKOFF = 5.0


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def execute_join(engine, request: dict) -> dict:
    """Run one join request on ``engine``; returns its wire document."""
    predicate = (
        parse_predicate(request["predicate"]) if request.get("predicate") else None
    )
    return engine.join(
        request["r"],
        request["s"],
        method=request["method"],
        grid_order=request["grid_order"],
        mode=request["mode"],
        predicate=predicate,
        workers=request["workers"],
        include_disjoint=request["include_disjoint"],
        partition_timeout=request["partition_timeout"],
    ).to_wire()


def execute_build_index(request: dict) -> dict:
    """Build one persistent dataset index; returns what the response
    reports about it."""
    from repro.raster.storage import PAYLOAD_CODEC
    from repro.store.dataset import build_dataset

    dataset = build_dataset(
        request["data"],
        request["index"],
        grid_order=request["grid_order"],
        workers=request["workers"],
    )
    # What was written, not what was asked for: wire v1 validates the
    # request's field, but the store has one payload layout.
    return {"geometries": len(dataset), "payload_codec": PAYLOAD_CODEC}


def _request_handler():
    """The handler a slot's worker runs per request: execute, reply.

    The worker builds its own engine on its first join and keeps it
    warm for every later one. A missing input answers 404, any other
    bad input 400.
    """
    engine = None

    def handle(request: dict) -> tuple:
        nonlocal engine
        build = request["op"] == "build-index"
        if build:
            key = (request["data"], request["index"])
        else:
            key = (request["r"], request["s"])
        seq = request["seq"]
        # Failpoints first: an armed crash/hang takes the worker down
        # mid-request, exactly like a real fault would.
        failpoints.maybe_fail_serve(key, seq)
        begin_worker_capture()
        try:
            if build:
                reply = ("ok", execute_build_index(request))
            else:
                if engine is None:
                    from repro.store.engine import Engine

                    engine = Engine()
                reply = ("ok", execute_join(engine, request))
        except FileNotFoundError as exc:
            reply = ("error", 404, str(exc))
        except (ValueError, OSError) as exc:
            reply = ("error", 400, str(exc))
        obs = export_worker_capture()
        delay = failpoints.serve_response_delay(key, seq)
        if delay > 0:
            time.sleep(delay)
        return (*reply, obs)

    return handle


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Slot(SupervisedWorker):
    """One pool slot's live worker, owned by the parent."""

    def __init__(self, slot: int, handler, siblings) -> None:
        super().__init__(handler, name=f"serve-worker-{slot}", siblings=siblings)
        self.slot = slot
        self.busy = False


class WorkerPool:
    """N supervised engine workers, a queue of at most ``max_queue``
    requests waiting for them, and a ``deadline`` in seconds on each
    request (see the module docstring for the rules).

    Each worker builds its own ``Engine()`` on its first join. The pool
    is started by :meth:`start` (the :class:`~repro.serve.service.JoinService`
    that owns it calls it) and stopped by :meth:`close`; a worker that
    fails is respawned by the supervisor thread with per-slot
    exponential backoff (reset on the next completed request).
    """

    def __init__(
        self,
        size: int,
        *,
        max_queue: int = 8,
        deadline: float = DEFAULT_PARTITION_TIMEOUT,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.size = size
        self.max_queue = max_queue
        self.deadline = float(deadline)
        #: Held around every fork of a pool worker, so forks never
        #: overlap one another.
        self.fork_lock = threading.Lock()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: dict[int, _Slot | None] = {}
        self._idle: list[_Slot] = []
        self._respawn_at: dict[int, float] = {}
        self._failstreak: dict[int, int] = {}
        self._seq = 0
        self._closing = False
        self._started = False
        #: Requests holding a worker, and requests waiting for one.
        self._inflight = 0
        self._queued = 0
        self.admitted_total = 0
        self.shed_total = 0
        self.respawns_total = 0
        self.failures_total: dict[str, int] = {}
        self._supervisor: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "WorkerPool":
        """Fork the initial workers and start the supervisor."""
        if self._started:
            return self
        # Load any env-armed failpoint spec *in the parent* before the
        # first fork: children must inherit the parent's arming pid so
        # serve.* sites fire in workers and never in the daemon.
        failpoints._ensure_env_loaded()
        for slot in range(self.size):
            worker = self._spawn(slot)
            with self._cond:
                self._workers[slot] = worker
                self._idle.append(worker)
                self._cond.notify_all()
        self._started = True
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-pool-supervisor", daemon=True
        )
        self._supervisor.start()
        with self._lock:
            self._observe_workers_locked()
        return self

    def _spawn(self, slot: int) -> _Slot:
        with self._lock:
            siblings = [w for w in self._workers.values() if w is not None]
        with self.fork_lock:
            worker = _Slot(slot, _request_handler(), siblings)
        log.info("serve worker %d up (pid %d)", slot, worker.proc.pid)
        return worker

    def close(self, timeout: float = 10.0) -> None:
        """Stop every worker: polite stop message, then SIGKILL
        stragglers. Idempotent; suppresses any pending respawn."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._idle.clear()
            workers = [w for w in self._workers.values() if w is not None]
            self._cond.notify_all()
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.stop(max(0.0, deadline - time.monotonic()))
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)
        with self._lock:
            self._workers = {slot: None for slot in range(self.size)}

    # -- dispatch ------------------------------------------------------
    def next_seq(self) -> int:
        """The daemon-global dispatch sequence number (failpoint hit).

        Stamped on each request *after* a worker is acquired, so it
        counts joins that actually reach a worker: under chaos,
        ``nth:3`` deterministically means "the third executed join"
        even when some attempts were refused ``pool_exhausted`` first —
        and, unlike a per-process counter, it never resets when a
        worker respawns (``times:2`` cannot crash every fresh worker
        forever).
        """
        with self._lock:
            self._seq += 1
            return self._seq

    def submit(self, request: dict, *, endpoint: str) -> tuple[tuple, float, float]:
        """Run one request on a worker: wait for an idle one, dispatch,
        wait for its reply within what remains of the deadline.

        Returns ``(reply, queued_seconds, seconds)``: the worker's reply
        tuple (``("ok", result, obs)`` or ``("error", status, message,
        obs)``), the wait for the worker, and the time from taking it to
        the reply. Raises :class:`~repro.serve.schema.ServiceError` for
        every refusal and failure (see the module docstring).
        """
        worker, queued = self._acquire(endpoint)
        t0 = time.perf_counter()
        try:
            remaining = max(0.0, self.deadline - queued)
            request["partition_timeout"] = remaining or None
            request.setdefault("seq", self.next_seq())
            worker.send(request)
            if not worker.poll(max(0.05, remaining)):
                raise self._failure(
                    worker,
                    "worker_hang",
                    f"worker {worker.slot} exceeded the {remaining:.1f}s deadline",
                )
            try:
                reply = worker.recv()
            except WorkerDied as exc:
                raise self._failure(
                    worker, "worker_crash", f"worker {worker.slot} died mid-request"
                ) from exc
            except WorkerError as exc:
                reply = ("error", 500, f"internal error: {exc}", None)
        finally:
            self._release(worker)
        return reply, queued, time.perf_counter() - t0

    def _idle_worker_locked(self) -> _Slot | None:
        while self._idle:
            worker = self._idle.pop()
            if worker.alive():
                return worker
            self._retire_locked(worker, "worker_exit")
        return None

    def _shed_locked(self, endpoint: str, reason: str) -> ServiceError:
        self.shed_total += 1
        if metrics_enabled():
            get_registry().inc("repro_serve_shed_total", endpoint=endpoint, reason=reason)
        return ServiceError(
            429, f"{endpoint}: shed ({reason})", reason=reason, retry_after=1.0
        )

    def _acquire(self, endpoint: str) -> tuple[_Slot, float]:
        """Take an idle live worker, queueing for one within the bounds;
        returns it with the seconds the request waited."""
        t0 = time.monotonic()
        with self._cond:
            # close() empties the idle list and nothing refills it.
            worker = self._idle_worker_locked()
            if worker is None and not self._closing:
                if all(w is None for w in self._workers.values()):
                    # Every slot awaits its respawn: nothing to queue for.
                    raise ServiceError(
                        503, "no live worker", reason="pool_exhausted",
                        retry_after=self._respawn_eta_locked(),
                    )
                if self._queued >= self.max_queue:
                    raise self._shed_locked(endpoint, "queue_full")
                self._queued += 1
                try:
                    while worker is None and not self._closing:
                        remaining = self.deadline - (time.monotonic() - t0)
                        if remaining <= 0:
                            raise self._shed_locked(endpoint, "deadline")
                        self._cond.wait(remaining)
                        worker = self._idle_worker_locked()
                finally:
                    self._queued -= 1
                    if worker is None:
                        self._cond.notify_all()  # for wait_idle
            if worker is None:
                raise ServiceError(
                    503, "the pool is shutting down", reason="pool_closed",
                    retry_after=1.0,
                )
            worker.busy = True
            self._inflight += 1
            self.admitted_total += 1
            inflight = self._inflight
        queued = time.monotonic() - t0
        if metrics_enabled():
            registry = get_registry()
            registry.observe("repro_serve_inflight", inflight)
            registry.observe(
                "repro_serve_queue_wait_seconds", queued, endpoint=endpoint
            )
        return worker, queued

    def _release(self, worker: _Slot) -> None:
        """End a request: its worker, unless retired, goes back on the
        idle list, and the waiters hear of it."""
        with self._cond:
            worker.busy = False
            self._inflight -= 1
            # While closing, close() already sent this worker its stop.
            if self._workers.get(worker.slot) is worker and not self._closing:
                self._failstreak[worker.slot] = 0
                self._idle.append(worker)
            self._cond.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request holds or waits for a worker (the
        graceful drain step); False if ``timeout`` lapsed first."""
        end = time.monotonic() + timeout
        with self._cond:
            while self._inflight or self._queued:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    # -- failure handling ----------------------------------------------
    def _failure(self, worker: _Slot, reason: str, message: str) -> ServiceError:
        """Retire ``worker`` for ``reason``; the 503 its request gets,
        with the seconds until a slot respawns as ``retry_after``."""
        with self._cond:
            self._retire_locked(worker, reason)
            eta = self._respawn_eta_locked()
        return ServiceError(503, message, reason=reason, retry_after=eta)

    def _retire_locked(self, worker: _Slot, reason: str) -> None:
        """Kill what is left of ``worker`` and schedule its slot's
        respawn after the slot's backoff."""
        if self._workers.get(worker.slot) is not worker:
            return  # already retired
        worker.kill()
        self._workers[worker.slot] = None
        streak = self._failstreak.get(worker.slot, 0) + 1
        self._failstreak[worker.slot] = streak
        backoff = min(MAX_SPAWN_BACKOFF, SPAWN_BACKOFF * (2 ** (streak - 1)))
        self._respawn_at[worker.slot] = time.monotonic() + backoff
        self.failures_total[reason] = self.failures_total.get(reason, 0) + 1
        if metrics_enabled():
            get_registry().inc(
                "repro_serve_worker_failures_total", reason=reason
            )
        log.warning(
            "serve worker %d retired (%s); respawn in %.2fs", worker.slot, reason, backoff
        )
        self._observe_workers_locked()

    def _respawn_eta_locked(self) -> float:
        now = time.monotonic()
        pending = [t - now for t in self._respawn_at.values() if t > now]
        return max(0.1, round(min(pending), 2)) if pending else 1.0

    # -- supervision ---------------------------------------------------
    def _supervise(self) -> None:
        while not self._closing:
            time.sleep(0.05)
            with self._cond:
                if self._closing:
                    return
                # Reap idle workers that died between requests (a kill
                # from outside, say) so readiness recovers untouched by
                # traffic.
                for worker in list(self._idle):
                    if not worker.alive():
                        self._idle.remove(worker)
                        self._retire_locked(worker, "worker_exit")
                due = [
                    slot
                    for slot, worker in self._workers.items()
                    if worker is None
                    and time.monotonic() >= self._respawn_at.get(slot, 0.0)
                ]
            for slot in due:
                if self._closing:
                    return
                try:
                    worker = self._spawn(slot)
                except Exception as exc:  # pragma: no cover - fork failure
                    log.error("respawn of serve worker %d failed: %s", slot, exc)
                    with self._lock:
                        self._respawn_at[slot] = time.monotonic() + MAX_SPAWN_BACKOFF
                    continue
                with self._cond:
                    if self._closing:
                        worker.kill()
                        return
                    self._workers[slot] = worker
                    self._idle.append(worker)
                    self.respawns_total += 1
                    self._cond.notify_all()
                    self._observe_workers_locked()
                if metrics_enabled():
                    get_registry().inc("repro_serve_worker_respawns_total")

    # -- introspection -------------------------------------------------
    @property
    def quorum(self) -> int:
        """Minimum live workers for the pool to count as ready."""
        return self.size // 2 + 1

    def _live_locked(self) -> int:
        return sum(1 for w in self._workers.values() if w is not None and w.alive())

    def snapshot(self) -> dict:
        with self._lock:
            busy = sum(
                1 for w in self._workers.values() if w is not None and w.busy
            )
            return {
                "size": self.size,
                "live": self._live_locked(),
                "busy": busy,
                "quorum": self.quorum,
                "respawns_total": self.respawns_total,
                "failures_total": dict(sorted(self.failures_total.items())),
            }

    def admission_snapshot(self) -> dict:
        """The gate's state: the ``admission`` block of ``/v1/healthz``."""
        with self._lock:
            return {
                "inflight": self._inflight,
                "queued": self._queued,
                "max_inflight": self.size,
                "max_queue": self.max_queue,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
            }

    def _observe_workers_locked(self) -> None:
        if metrics_enabled():
            get_registry().observe("repro_serve_pool_workers", self._live_locked())


__all__ = [
    "MAX_SPAWN_BACKOFF",
    "SPAWN_BACKOFF",
    "WorkerPool",
]

"""Supervised engine-worker pool: where the join service runs its work.

``supervised_map`` gives batch runs crash isolation on
:class:`~repro.resilience.worker.SupervisedWorker` processes: fork,
watch deadlines, detect death, respawn, fall back serially. This module
puts the same primitive under the serving layer. A :class:`WorkerPool`
owns N long-lived slots, each one ``SupervisedWorker`` speaking a
private duplex pipe; the pool adds what is policy — the idle list,
per-slot respawn backoff, quorum, the failure vocabulary. Every join
and every index build the daemon answers runs in one of these workers,
which builds its own :class:`~repro.store.engine.Engine` on its first
join and keeps it warm across requests. The HTTP handler threads stay
a thin coordinator: validate, admit, dispatch to an idle worker, relay
the reply.

What the pool buys:

- **Crashes don't take the daemon.** A worker SIGKILLed mid-request
  (OOM killer, C-extension fault, armed ``serve.worker_crash``
  failpoint) closes its pipe; the dispatching thread sees EOF, answers
  *that one request* with a 503, and the supervisor respawns the slot
  with exponential backoff. Every other in-flight request is untouched.
- **Hangs don't either.** The dispatcher waits at most the request's
  admission deadline on the pipe; past it the worker is SIGKILLed and
  the slot respawned (``serve.worker_hang`` exercises this).
- **True concurrency.** Each worker is a separate process with its own
  engine, so ``--max-inflight N`` over N workers genuinely parallelises
  warm joins on multi-core boxes.
- **No fork from a busy process.** A request that asks for ``workers >
  1`` forks its fan-out from a single-threaded worker, never from the
  threaded daemon.

Results stay byte-identical to a direct :meth:`Engine.join`: the worker
returns the frozen ``run.to_wire()`` document and the daemon
serializes it with the deterministic :func:`dumps_wire`. Workers also
export their per-request obs state (spans, metrics, profile, resources
— the PR 8 worker-capture pattern), which the service folds into the
daemon registry so ``/metrics`` and the per-request dashboards see the
work the workers did.

Failure vocabulary (``WorkerFailure.reason``): ``worker_crash``,
``worker_hang``, ``pool_exhausted`` (no live worker to dispatch to),
``pool_closed``. Stdlib-only; fork start method (POSIX).
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
from repro.resilience.worker import SupervisedWorker, WorkerDied, WorkerError

log = logging.getLogger("repro.serve")

#: First respawn delay after a worker failure; doubles per consecutive
#: failure of the same slot up to :data:`DEFAULT_MAX_SPAWN_BACKOFF`.
DEFAULT_SPAWN_BACKOFF = 0.1
DEFAULT_MAX_SPAWN_BACKOFF = 5.0

#: How long a dispatch waits for an idle worker before declaring the
#: pool exhausted (all workers busy; dead slots fail fast instead).
DEFAULT_ACQUIRE_TIMEOUT = 1.0


class WorkerFailure(RuntimeError):
    """A request the pool could not execute, with the failure class."""

    def __init__(
        self, reason: str, message: str | None = None, *, retry_after: float = 1.0
    ) -> None:
        super().__init__(message or reason)
        self.reason = reason
        self.retry_after = retry_after


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def execute_join(engine, request: dict) -> dict:
    """Run one join request on ``engine``; returns its wire document."""
    from repro.serve.schema import parse_predicate

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
    """N supervised engine workers behind the admission gate.

    Each worker builds its own ``Engine()`` on its first join. The pool
    must be :meth:`start`-ed before use and :meth:`close`-d by its
    owner; a worker that fails is respawned by the supervisor thread
    with per-slot exponential backoff (reset on the next completed
    request).
    """

    def __init__(
        self,
        size: int,
        *,
        spawn_backoff: float = DEFAULT_SPAWN_BACKOFF,
        max_spawn_backoff: float = DEFAULT_MAX_SPAWN_BACKOFF,
        acquire_timeout: float = DEFAULT_ACQUIRE_TIMEOUT,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.spawn_backoff = float(spawn_backoff)
        self.max_spawn_backoff = float(max_spawn_backoff)
        self.acquire_timeout = float(acquire_timeout)
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

    def submit(self, request: dict, *, deadline: float) -> tuple:
        """Dispatch one request to an idle worker and wait for its reply.

        Returns the worker's reply tuple (``("ok", wire_doc, obs)`` or
        ``("error", status, message, obs)``).
        Raises :class:`WorkerFailure` when the worker crashes,
        outlives ``deadline`` (it is then SIGKILLed), or no live worker
        exists.
        """
        worker = self._acquire()
        request.setdefault("seq", self.next_seq())
        worker.send(request)
        try:
            if not worker.poll(max(0.05, deadline)):
                raise WorkerFailure(
                    "worker_hang",
                    f"worker {worker.slot} exceeded the {deadline:.1f}s deadline",
                    retry_after=self._retire(worker, "worker_hang"),
                )
            reply = worker.recv()
        except WorkerDied as exc:
            raise WorkerFailure(
                "worker_crash",
                f"worker {worker.slot} died mid-request",
                retry_after=self._retire(worker, "worker_crash"),
            ) from exc
        except WorkerError as exc:
            reply = ("error", 500, f"internal error: {exc}", None)
        self._release(worker)
        return reply

    def _acquire(self) -> _Slot:
        end = time.monotonic() + self.acquire_timeout
        with self._cond:
            while True:
                if self._closing:
                    raise WorkerFailure("pool_closed", "the pool is shutting down")
                while self._idle:
                    worker = self._idle.pop()
                    if worker.alive():
                        worker.busy = True
                        return worker
                    self._retire_locked(worker, "worker_exit")
                if all(w is None for w in self._workers.values()):
                    # Every slot is dead and awaiting its backoff; do
                    # not sit out the timeout — refuse immediately.
                    raise WorkerFailure(
                        "pool_exhausted",
                        "no live worker",
                        retry_after=self._respawn_eta_locked(),
                    )
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise WorkerFailure(
                        "pool_exhausted",
                        f"all {self.size} workers busy",
                        retry_after=1.0,
                    )
                self._cond.wait(min(remaining, 0.05))

    def _release(self, worker: _Slot) -> None:
        with self._cond:
            worker.busy = False
            self._failstreak[worker.slot] = 0
            # While closing, close() already sent this worker its stop.
            if not self._closing:
                self._idle.append(worker)
                self._cond.notify_all()

    # -- failure handling ----------------------------------------------
    def _retire(self, worker: _Slot, reason: str) -> float:
        """Retire ``worker``; returns the seconds until a slot respawns."""
        with self._cond:
            self._retire_locked(worker, reason)
            return self._respawn_eta_locked()

    def _retire_locked(self, worker: _Slot, reason: str) -> None:
        """Kill what is left of ``worker`` and schedule its slot's
        respawn after the slot's backoff."""
        if self._workers.get(worker.slot) is not worker:
            return  # already retired
        worker.kill()
        self._workers[worker.slot] = None
        streak = self._failstreak.get(worker.slot, 0) + 1
        self._failstreak[worker.slot] = streak
        backoff = min(
            self.max_spawn_backoff, self.spawn_backoff * (2 ** (streak - 1))
        )
        self._respawn_at[worker.slot] = time.monotonic() + backoff
        self.failures_total[reason] = self.failures_total.get(reason, 0) + 1
        if metrics_enabled():
            get_registry().inc(
                "repro_serve_worker_failures_total", reason=reason
            )
        log.warning(
            "serve worker %d retired (%s); respawn in %.2fs", worker.slot, reason, backoff
        )
        self._cond.notify_all()
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
                        self._respawn_at[slot] = (
                            time.monotonic() + self.max_spawn_backoff
                        )
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

    def _observe_workers_locked(self) -> None:
        if metrics_enabled():
            get_registry().observe("repro_serve_pool_workers", self._live_locked())


__all__ = [
    "DEFAULT_ACQUIRE_TIMEOUT",
    "DEFAULT_MAX_SPAWN_BACKOFF",
    "DEFAULT_SPAWN_BACKOFF",
    "WorkerFailure",
    "WorkerPool",
]

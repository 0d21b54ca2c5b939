"""Supervised engine-worker pool for the join service.

PR 5's ``supervised_map`` gave batch runs crash isolation: fork
workers, watch deadlines, detect death, respawn, fall back serially.
This module promotes that machinery to the serving layer. A
:class:`WorkerPool` owns N long-lived engine worker *processes*, forked
after store warm-up so every worker inherits the parent engine's warm
caches copy-on-write, each speaking a private duplex pipe. The HTTP
handler threads stay a thin coordinator: validate, admit, dispatch to
an idle worker, relay the reply.

What isolation buys over the PR 9 single-flight lock:

- **Crashes don't take the daemon.** A worker SIGKILLed mid-join (OOM
  killer, C-extension fault, armed ``serve.worker_crash`` failpoint)
  closes its pipe; the dispatching thread sees EOF, answers *that one
  request* with a 503, and the supervisor respawns the slot with
  exponential backoff. Every other in-flight request is untouched.
- **Hangs don't either.** The dispatcher waits at most the request's
  admission deadline on the pipe; past it the worker is SIGKILLed and
  the slot respawned (``serve.worker_hang`` exercises this).
- **True concurrency.** Each worker is a separate process with its own
  engine, so ``--max-inflight N`` over N workers genuinely parallelises
  warm joins on multi-core boxes — ROADMAP's "join service, layer 2".

Results stay byte-identical to a direct :meth:`Engine.join`: the worker
returns the frozen ``run.to_wire()`` document and the parent
serializes it with the same deterministic :func:`dumps_wire` as the
single-flight path. Workers also export their per-request obs state
(spans, metrics, profile, resources — the PR 8 worker-capture pattern),
which the service folds into the daemon registry so ``/metrics`` and
the per-request dashboards keep working under the pool.

Failure vocabulary (``WorkerFailure.reason``): ``worker_crash``,
``worker_hang``, ``pool_exhausted`` (no live worker to dispatch to),
``pool_closed``. Stdlib-only; fork start method (POSIX).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import threading
import time

from repro.obs.metrics import get_registry, metrics_enabled
from repro.resilience import failpoints

log = logging.getLogger("repro.serve")

#: First respawn delay after a worker failure; doubles per consecutive
#: failure of the same slot up to :data:`DEFAULT_MAX_SPAWN_BACKOFF`.
DEFAULT_SPAWN_BACKOFF = 0.1
DEFAULT_MAX_SPAWN_BACKOFF = 5.0

#: How long a dispatch waits for an idle worker before declaring the
#: pool exhausted (all workers busy; dead slots fail fast instead).
DEFAULT_ACQUIRE_TIMEOUT = 1.0

#: Seconds to wait for a freshly forked worker's ready ack.
READY_TIMEOUT = 30.0

_STOP = ("stop",)


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
def _worker_obs_begin() -> None:
    from repro.parallel import executor

    executor._worker_obs_begin()


def _worker_obs_export() -> dict | None:
    from repro.parallel import executor

    return executor._worker_obs_export()


def _execute_join(engine, request: dict) -> tuple:
    """Run one join request, mapping errors exactly like the service's
    single-flight path so pool and lock answers are interchangeable."""
    from repro.serve.schema import parse_predicate

    predicate = (
        parse_predicate(request["predicate"]) if request.get("predicate") else None
    )
    try:
        run = engine.join(
            request["r"],
            request["s"],
            method=request["method"],
            grid_order=request["grid_order"],
            mode=request["mode"],
            predicate=predicate,
            workers=request["workers"],
            include_disjoint=request["include_disjoint"],
            partition_timeout=request["partition_timeout"],
        )
    except FileNotFoundError as exc:
        return 404, str(exc), None
    except (ValueError, OSError) as exc:
        return 400, str(exc), None
    return 200, None, run


def _worker_main(slot: int, conn, engine, inherited_conns) -> None:
    """The engine worker loop: recv request, join, send reply.

    Runs in a fork child. ``inherited_conns`` are the *other* workers'
    pipe ends open in the parent at fork time; closing our copies keeps
    each pipe's EOF semantics intact (a crashed worker's death must be
    the last close of its end, so the parent's poll wakes immediately).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited_conns:
        try:
            other.close()
        except OSError:
            pass
    if engine is None:
        from repro.store.engine import Engine

        engine = Engine()
    conn.send(("ready", os.getpid()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone; no one to serve
        if message[0] == "stop":
            break
        request = message[1]
        key = (request["r"], request["s"])
        seq = request["seq"]
        # Failpoints first: an armed crash/hang takes the worker down
        # mid-request, exactly like a real fault would.
        failpoints.maybe_fail_serve(key, seq)
        _worker_obs_begin()
        try:
            status, error, run = _execute_join(engine, request)
        except Exception as exc:  # defensive: never kill the loop quietly
            status, error, run = 500, f"internal error: {exc}", None
        obs = _worker_obs_export()
        delay = failpoints.serve_response_delay(key, seq)
        if delay > 0:
            time.sleep(delay)
        if status == 200:
            reply = ("ok", run.to_wire(), obs)
        else:
            reply = ("error", status, error, obs)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Worker:
    """One pool slot's live process + pipe, owned by the parent."""

    __slots__ = ("slot", "proc", "conn", "generation", "busy")

    def __init__(self, slot: int, proc, conn, generation: int) -> None:
        self.slot = slot
        self.proc = proc
        self.conn = conn
        self.generation = generation
        self.busy = False


class WorkerPool:
    """N supervised engine workers behind the admission gate.

    ``engine`` (optional) is the parent's warm engine — fork it into
    every worker copy-on-write; with ``None`` each worker builds its
    own ``Engine()``. The pool must be :meth:`start`-ed before use and
    :meth:`close`-d by its owner; a worker that fails is respawned by
    the supervisor thread with per-slot exponential backoff (reset on
    the next completed request).
    """

    def __init__(
        self,
        size: int,
        *,
        engine=None,
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
        self._engine = engine
        self._ctx = multiprocessing.get_context("fork")
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: dict[int, _Worker | None] = {}
        self._idle: list[_Worker] = []
        self._respawn_at: dict[int, float] = {}
        self._failstreak: dict[int, int] = {}
        self._generation = 0
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
        self._observe_workers()
        return self

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        with self._lock:
            self._generation += 1
            generation = self._generation
            inherited = [w.conn for w in self._workers.values() if w is not None]
        proc = self._ctx.Process(
            target=_worker_main,
            args=(slot, child_conn, self._engine, inherited),
            name=f"serve-worker-{slot}",
        )
        proc.start()
        child_conn.close()  # the parent keeps only its own end
        worker = _Worker(slot, proc, parent_conn, generation)
        if not parent_conn.poll(READY_TIMEOUT):
            proc.kill()
            proc.join()
            raise RuntimeError(f"serve worker {slot} never became ready")
        ack = parent_conn.recv()
        if ack[0] != "ready":  # pragma: no cover - protocol violation
            raise RuntimeError(f"serve worker {slot} sent {ack!r} instead of ready")
        log.info("serve worker %d up (pid %d, generation %d)", slot, ack[1], generation)
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
        for worker in workers:
            try:
                worker.conn.send(_STOP)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.proc.join(max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()
            try:
                worker.conn.close()
            except OSError:
                pass
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
        try:
            worker.conn.send(("join", request))
            if not worker.conn.poll(max(0.05, deadline)):
                self._retire(worker, "worker_hang", kill=True)
                raise WorkerFailure(
                    "worker_hang",
                    f"worker {worker.slot} exceeded the {deadline:.1f}s deadline",
                    retry_after=self._respawn_eta(),
                )
            reply = worker.conn.recv()
        except WorkerFailure:
            raise
        except (EOFError, BrokenPipeError, OSError) as exc:
            self._retire(worker, "worker_crash", kill=True)
            raise WorkerFailure(
                "worker_crash",
                f"worker {worker.slot} died mid-request ({exc.__class__.__name__})",
                retry_after=self._respawn_eta(),
            ) from exc
        self._release(worker)
        return reply

    def _acquire(self) -> _Worker:
        end = time.monotonic() + self.acquire_timeout
        with self._cond:
            while True:
                if self._closing:
                    raise WorkerFailure("pool_closed", "the pool is shutting down")
                while self._idle:
                    worker = self._idle.pop()
                    if worker.proc.is_alive():
                        worker.busy = True
                        return worker
                    self._retire_locked(worker, "worker_exit")
                if all(w is None for w in self._workers.values()):
                    # Every slot is dead and awaiting its backoff; do
                    # not sit out the timeout — degrade immediately.
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

    def _release(self, worker: _Worker) -> None:
        stop_after = False
        with self._cond:
            worker.busy = False
            self._failstreak[worker.slot] = 0
            if self._closing:
                stop_after = True
            else:
                self._idle.append(worker)
                self._cond.notify_all()
        if stop_after:
            try:
                worker.conn.send(_STOP)
            except (BrokenPipeError, OSError):
                pass

    # -- failure handling ----------------------------------------------
    def _retire(self, worker: _Worker, reason: str, *, kill: bool = False) -> None:
        with self._cond:
            self._retire_locked(worker, reason, kill=kill)

    def _retire_locked(self, worker: _Worker, reason: str, *, kill: bool = False) -> None:
        if self._workers.get(worker.slot) is not worker:
            return  # already retired
        if kill and worker.proc.is_alive():
            worker.proc.kill()
        try:
            worker.conn.close()
        except OSError:
            pass
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

    def _respawn_eta(self) -> float:
        with self._lock:
            return self._respawn_eta_locked()

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
                    if not worker.proc.is_alive():
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
                        worker.proc.kill()
                        worker.proc.join()
                        return
                    self._workers[slot] = worker
                    self._idle.append(worker)
                    self.respawns_total += 1
                    self._cond.notify_all()
                if metrics_enabled():
                    get_registry().inc("repro_serve_worker_respawns_total")
                self._observe_workers()

    # -- introspection -------------------------------------------------
    @property
    def quorum(self) -> int:
        """Minimum live workers for the pool to count as ready."""
        return self.size // 2 + 1

    def live_workers(self) -> int:
        with self._lock:
            return sum(
                1
                for w in self._workers.values()
                if w is not None and w.proc.is_alive()
            )

    def snapshot(self) -> dict:
        with self._lock:
            live = sum(
                1
                for w in self._workers.values()
                if w is not None and w.proc.is_alive()
            )
            busy = sum(
                1 for w in self._workers.values() if w is not None and w.busy
            )
            return {
                "size": self.size,
                "live": live,
                "busy": busy,
                "quorum": self.quorum,
                "respawns_total": self.respawns_total,
                "failures_total": dict(sorted(self.failures_total.items())),
            }

    def _observe_workers(self) -> None:
        with self._lock:
            self._observe_workers_locked()

    def _observe_workers_locked(self) -> None:
        if metrics_enabled():
            live = sum(
                1
                for w in self._workers.values()
                if w is not None and w.proc.is_alive()
            )
            get_registry().observe("repro_serve_pool_workers", live)


__all__ = [
    "DEFAULT_ACQUIRE_TIMEOUT",
    "DEFAULT_MAX_SPAWN_BACKOFF",
    "DEFAULT_SPAWN_BACKOFF",
    "READY_TIMEOUT",
    "WorkerFailure",
    "WorkerPool",
]

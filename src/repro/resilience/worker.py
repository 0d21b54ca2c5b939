"""The one supervised worker process under both pools.

A :class:`SupervisedWorker` is a forked child answering messages on a
private duplex pipe. The batch fan-out
(:func:`repro.resilience.supervisor.supervised_map`) and the serving
pool (:class:`repro.serve.pool.WorkerPool`) both build on it, so fork,
handshake, death detection and kill exist once:

- the child is **forked**, so it inherits its handler — a closure over
  whatever state the task needs — instead of unpickling it, and sees
  the parent's warm caches and armed failpoints copy-on-write;
- it acknowledges with a **ready handshake** before the constructor
  returns, and closes its inherited copies of the parent's pipe ends
  (its own and every sibling's), so a pipe's two ends are each held by
  exactly one process;
- **death is EOF on that pipe**: the parent dropped its copy of the
  child's end right after the fork, so the child's exit — a SIGKILL
  included — is the last close, and the parent's wait wakes at once;
- the parent made the assignment, so it already knows which task a dead
  or overdue worker held and may :meth:`~SupervisedWorker.kill` it on
  the spot; a private pipe has no shared queue a SIGKILL could corrupt.

What to do about a failure — retry, backoff, fallback, respawn, 503 —
is policy and stays with the caller. Stdlib-only; ``fork`` start method
(POSIX).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
from typing import Callable, Iterable, Sequence

#: Seconds to wait for a freshly forked worker's ready ack.
READY_TIMEOUT = 30.0


class WorkerDied(Exception):
    """The worker's pipe reached EOF: its process is gone."""


class WorkerError(Exception):
    """The handler raised, or its result could not travel the pipe."""


def _child_main(conn, handler: Callable, inherited: list) -> None:
    """The worker loop: recv message, send ``handler(message)``."""
    # Ctrl-C belongs to the parent, which stops or kills its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:
        try:
            end.close()
        except OSError:
            pass
    conn.send(True)
    while True:
        try:
            envelope = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone; no one to serve
        if envelope is None:
            break
        try:
            reply = (True, handler(envelope[0]))
        except Exception as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:
            break
        except Exception as exc:
            # Pickling failed before any byte was written, so the pipe
            # is still in frame: report instead of leaving the parent
            # to wait out its deadline.
            conn.send((False, f"result cannot be pickled: {exc!r}"))


class SupervisedWorker:
    """One forked child serving ``handler(message)`` over a private pipe.

    ``siblings`` are the caller's other live workers: the child closes
    its inherited copies of their pipe ends. Raises ``RuntimeError``
    when the child never becomes ready.
    """

    def __init__(
        self,
        handler: Callable,
        *,
        name: str,
        siblings: Iterable["SupervisedWorker"] = (),
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        inherited = [self.conn, *(w.conn for w in siblings)]
        self.proc = ctx.Process(
            target=_child_main, args=(child_conn, handler, inherited), name=name
        )
        self.proc.start()
        child_conn.close()  # the child's copy must be the only one
        try:
            ready = self.conn.poll(READY_TIMEOUT) and self.conn.recv()
        except (EOFError, OSError):
            ready = False
        if not ready:
            self.kill()
            raise RuntimeError(f"worker {name} never became ready")

    def send(self, message) -> None:
        """Hand the worker one message. Sending to a dead worker is not
        an error here: its closed pipe reads as EOF, so the failure
        surfaces as :class:`WorkerDied` from the next :meth:`recv`."""
        try:
            self.conn.send((message,))
        except OSError:
            pass

    def poll(self, timeout: float) -> bool:
        """Whether a reply — or EOF — is readable within ``timeout``."""
        try:
            return self.conn.poll(timeout)
        except OSError:
            return True  # killed under us: recv() reports the death

    def recv(self):
        """The handler's result for the oldest unanswered message.

        Raises :class:`WorkerDied` at EOF and :class:`WorkerError` when
        the handler raised or its result could not be pickled.
        """
        try:
            ok, value = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerDied(f"{self.proc.name} (pid {self.proc.pid})") from exc
        if not ok:
            raise WorkerError(value)
        return value

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        """SIGKILL the child if it still runs, reap it, close the pipe."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        self.conn.close()

    def stop(self, timeout: float) -> None:
        """Ask the child to exit after its current message; SIGKILL it
        if it has not within ``timeout`` seconds."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.proc.join(timeout)
        self.kill()


def wait_readable(
    workers: Sequence[SupervisedWorker], timeout: float
) -> list[SupervisedWorker]:
    """The ``workers`` with a reply — or EOF — to read, waiting up to
    ``timeout`` seconds for the first."""
    ready = multiprocessing.connection.wait([w.conn for w in workers], timeout)
    return [w for w in workers if w.conn in ready]


__all__ = [
    "READY_TIMEOUT",
    "SupervisedWorker",
    "WorkerDied",
    "WorkerError",
    "wait_readable",
]

"""The supervised-worker primitive both pools are built on.

What ``supervised_map`` and ``WorkerPool`` rely on, asserted on the
primitive itself: a forked child answers messages over its private
pipe, a handler error or an unpicklable result comes back as
``WorkerError`` with the worker still serving, a SIGKILL reads as EOF
at once (``WorkerDied``) without disturbing a sibling's in-flight
message, and every pipe end is held by exactly one process.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.resilience.worker import (
    SupervisedWorker,
    WorkerDied,
    WorkerError,
    wait_readable,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker primitive needs the fork start method",
)


def _spawn(handler, siblings=()):
    return SupervisedWorker(handler, name="test-worker", siblings=siblings)


def test_child_inherits_a_closure_and_answers_in_order():
    state = {"offset": 10}  # inherited by fork, never pickled
    worker = _spawn(lambda message: (os.getpid(), message + state["offset"]))
    try:
        worker.send(1)
        worker.send(2)
        assert worker.poll(5.0)
        pid, first = worker.recv()
        assert pid == worker.proc.pid != os.getpid()
        assert first == 11
        assert worker.recv() == (pid, 12)
    finally:
        worker.stop(5.0)
    assert not worker.alive()
    assert worker.proc.exitcode == 0  # a polite stop, not a kill


def test_handler_error_and_unpicklable_result_keep_the_worker_serving():
    def handler(message):
        if message == "raise":
            raise ValueError("boom")
        if message == "unpicklable":
            return lambda: None
        return message

    worker = _spawn(handler)
    try:
        worker.send("raise")
        with pytest.raises(WorkerError, match="ValueError: boom"):
            worker.recv()
        worker.send("unpicklable")
        with pytest.raises(WorkerError, match="pickle"):
            worker.recv()
        worker.send("fine")
        assert worker.recv() == "fine"
    finally:
        worker.kill()


def test_sigkill_mid_task_is_eof_at_once_and_spares_the_sibling():
    def handler(message):
        time.sleep(message)
        return message

    victim = _spawn(handler)
    sibling = _spawn(handler, siblings=[victim])
    try:
        victim.send(30.0)
        sibling.send(0.3)
        os.kill(victim.proc.pid, signal.SIGKILL)
        start = time.monotonic()
        assert wait_readable([victim, sibling], 5.0) == [victim]
        assert time.monotonic() - start < 0.25  # before the sibling replies
        with pytest.raises(WorkerDied):
            victim.recv()
        assert wait_readable([sibling], 5.0) == [sibling]
        assert sibling.recv() == 0.3
    finally:
        victim.kill()
        sibling.kill()
    assert multiprocessing.active_children() == []


def test_sending_to_a_dead_worker_surfaces_at_recv():
    worker = _spawn(lambda message: message)
    os.kill(worker.proc.pid, signal.SIGKILL)
    worker.proc.join(5.0)
    worker.send("anyone there?")  # not an error here
    assert worker.poll(5.0)
    with pytest.raises(WorkerDied):
        worker.recv()
    worker.kill()


def test_later_siblings_do_not_hold_an_earlier_workers_pipe_open():
    # The second child inherits the parent's end of the first pipe; had
    # it kept that copy, closing ours would not read as EOF in the first
    # child, which would block in recv() forever instead of exiting.
    first = _spawn(lambda message: message)
    second = _spawn(lambda message: message, siblings=[first])
    try:
        first.conn.close()
        first.proc.join(5.0)
        assert not first.alive()
        second.send("still here")
        assert second.recv() == "still here"
    finally:
        first.kill()
        second.kill()


def test_stop_kills_a_worker_that_will_not_finish():
    worker = _spawn(lambda message: time.sleep(message))
    worker.send(30.0)
    start = time.monotonic()
    worker.stop(0.2)
    assert time.monotonic() - start < 2.0
    assert not worker.alive()
    assert worker.proc.exitcode == -signal.SIGKILL

"""Chaos tests: the supervised pool under crash/hang/error schedules.

Every test asserts the contract that matters — results identical to a
clean serial run, whatever the failure schedule — plus the supervision
accounting, a recovery-time budget, and the lifecycle regression: no
fan-out state outlives its call (no module global to clear, and no
worker process left behind on any exit path: normal, retry, timeout,
serial fallback).
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.datasets import load_scenario
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.parallel import executor, preprocess
from repro.parallel.executor import run_find_relation_parallel, run_relate_parallel
from repro.parallel.preprocess import build_april_parallel
from repro.raster.april import build_april
from repro.resilience import failpoints
from repro.resilience.failpoints import FailpointSpec
from repro.resilience.supervisor import SupervisionReport, supervised_map
from repro.topology import TopologicalRelation as T

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised pool needs the fork start method",
)


@pytest.fixture(autouse=True)
def clean_failpoints():
    failpoints.disarm_all()
    yield
    failpoints.disarm_all()


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("OLE-OPE", scale=0.3, grid_order=10)


@pytest.fixture(scope="module")
def serial_run(scenario):
    return run_find_relation_parallel(
        "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs, workers=1
    )


def _chaos_find(scenario, **kwargs):
    # Two workers cut the stream into 2 * CHUNKS_PER_WORKER partitions.
    kwargs.setdefault("workers", 2)
    return run_find_relation_parallel(
        "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs, **kwargs
    )


# ----------------------------------------------------------------------
# supervised_map building blocks (plain picklable workers)
# ----------------------------------------------------------------------
def _double(task):
    index, attempt = task
    return index * 2


def _double_serial(index):
    return index * 2


def _fail_on_first_attempt(task):
    index, attempt = task
    if attempt == 1:
        raise ValueError(f"task {index} attempt {attempt}")
    return index * 2


def _always_fail(task):
    raise ValueError("poisoned")


class TestSupervisedMap:
    def test_argument_validation(self):
        with pytest.raises(ValueError, match="partition_timeout"):
            supervised_map(
                _double, 1, workers=2, serial_runner=_double_serial,
                stage="t", partition_timeout=0.0,
            )
        with pytest.raises(ValueError, match="max_retries"):
            supervised_map(
                _double, 1, workers=2, serial_runner=_double_serial,
                stage="t", max_retries=-1,
            )

    def test_empty_task_list(self):
        results, report = supervised_map(
            _double, 0, workers=2, serial_runner=_double_serial, stage="t"
        )
        assert results == []
        assert report.tasks == 0 and report.clean

    @fork_only
    def test_clean_run(self):
        results, report = supervised_map(
            _double, 6, workers=2, serial_runner=_double_serial, stage="t"
        )
        assert results == [0, 2, 4, 6, 8, 10]
        assert report.clean
        assert report.to_dict()["fallback_tasks"] == []

    @fork_only
    def test_worker_errors_are_retried(self):
        results, report = supervised_map(
            _fail_on_first_attempt, 4, workers=2,
            serial_runner=_double_serial, stage="t", backoff=0.001,
        )
        assert results == [0, 2, 4, 6]
        assert report.worker_errors == 4
        assert report.retries == 4
        assert report.fallbacks == 0

    @fork_only
    def test_poisoned_tasks_fall_back_serially(self):
        results, report = supervised_map(
            _always_fail, 3, workers=2,
            serial_runner=_double_serial, stage="t",
            max_retries=1, backoff=0.001,
        )
        assert results == [0, 2, 4]
        assert report.fallbacks == 3
        assert sorted(report.fallback_tasks) == [0, 1, 2]
        # attempts = max_retries + 1 per task
        assert report.retries == 3

    @fork_only
    def test_unpicklable_result_falls_back_serially(self):
        def unpicklable(task):
            return lambda: task  # a closure cannot travel the pipe

        results, report = supervised_map(
            unpicklable, 2, workers=2, serial_runner=_double_serial,
            stage="t", max_retries=1, backoff=0.001,
        )
        assert results == [0, 2]
        assert report.worker_errors == 4 and report.fallbacks == 2

    @fork_only
    def test_killed_worker_fails_only_its_own_task(self):
        # Task 0's first worker is SIGKILLed mid-task while task 1 is in
        # flight on the sibling: only task 0 is retried, and task 1's
        # answer is the one its first (only) attempt computed.
        def worker(task):
            index, attempt = task
            if index == 0 and attempt == 1:
                time.sleep(0.05)
                os.kill(os.getpid(), signal.SIGKILL)
            if index == 1:
                time.sleep(0.2)
            return index, attempt

        results, report = supervised_map(
            worker, 2, workers=2, serial_runner=_double_serial,
            stage="t", backoff=0.001,
        )
        assert results == [(0, 2), (1, 1)]
        assert report.worker_deaths == 1 and report.retries == 1
        assert report.timeouts == 0 and report.fallbacks == 0

    @fork_only
    def test_overdue_worker_is_killed_at_its_deadline_and_replaced(self, tmp_path):
        # One worker, so the retry can only run on the respawned slot.
        def worker(task):
            index, attempt = task
            if attempt == 1:
                (tmp_path / "hung.pid").write_text(str(os.getpid()))
                time.sleep(30.0)
            return os.getpid()

        start = time.monotonic()
        results, report = supervised_map(
            worker, 1, workers=1, serial_runner=_double_serial,
            stage="t", partition_timeout=0.2, backoff=0.001,
        )
        elapsed = time.monotonic() - start
        hung_pid = int((tmp_path / "hung.pid").read_text())
        assert report.timeouts == 1 and report.retries == 1
        assert report.fallbacks == 0
        # Killed *at* the deadline — not polled for, not waited out.
        assert 0.2 <= elapsed < 0.2 + 1.0
        assert results[0] != hung_pid
        with pytest.raises(ProcessLookupError):
            os.kill(hung_pid, 0)


# ----------------------------------------------------------------------
# executor chaos schedules
# ----------------------------------------------------------------------
@fork_only
class TestFindRelationChaos:
    def test_crash_on_first_attempt(self, scenario, serial_run):
        with failpoints.inject({"worker.crash": "times:1"}):
            run = _chaos_find(scenario, partition_timeout=30.0, max_retries=2)
        assert run.results == serial_run.results
        assert run.stats.relation_counts == serial_run.stats.relation_counts
        assert run.supervision.worker_deaths == run.partitions
        assert run.supervision.retries == run.partitions
        assert run.supervision.fallbacks == 0

    def test_hang_past_deadline(self, scenario, serial_run):
        failpoints.arm("worker.hang", "times:1", hang_seconds=30.0)
        start = time.monotonic()
        run = _chaos_find(scenario, partition_timeout=0.5, max_retries=2)
        wall = time.monotonic() - start
        assert run.results == serial_run.results
        assert run.supervision.timeouts >= run.partitions
        # Bounded: nowhere near the 30s hang, even with retries queued.
        assert wall < 15.0

    def test_recovery_time_budget_for_a_partition_that_always_hangs(
        self, scenario, serial_run
    ):
        # ``prob`` draws are a pure function of (seed, site, key, hit):
        # pick the seed under which exactly one partition hangs, on
        # both of its attempts, and no other partition ever does.
        partitions, attempts = 8, 2
        for seed in range(100_000):
            spec = FailpointSpec(site="worker.hang", mode="prob", arg=0.3, seed=seed)
            hangs = {
                (part, hit)
                for part in range(partitions)
                for hit in range(1, attempts + 1)
                if spec.evaluate(part, hit)
            }
            if len(hangs) == attempts and len({part for part, _ in hangs}) == 1:
                break
        (poisoned,) = {part for part, _ in hangs}
        failpoints.arm("worker.hang", "prob:0.3", seed=seed, hang_seconds=30.0)
        start = time.monotonic()
        run = _chaos_find(scenario, partition_timeout=0.5, max_retries=1)
        elapsed = time.monotonic() - start
        assert run.partitions == partitions
        assert run.results == serial_run.results
        assert run.supervision.timeouts == attempts
        assert run.supervision.fallback_tasks == [poisoned]
        # Both attempts are cut at their deadline, then one partition is
        # re-verified in-parent (less than the whole serial join).
        assert elapsed < 0.5 * attempts + serial_run.wall_seconds + 2.0

    def test_always_crash_exhausts_to_serial_fallback(self, scenario, serial_run):
        with failpoints.inject({"worker.crash": "always"}):
            run = _chaos_find(scenario, partition_timeout=30.0, max_retries=1)
        assert run.results == serial_run.results
        assert run.supervision.fallbacks == run.partitions

    def test_crash_probabilistically(self, scenario, serial_run):
        with failpoints.inject({"worker.crash": "prob:0.5"}, seed=11):
            run = _chaos_find(scenario, partition_timeout=30.0, max_retries=3)
        assert run.results == serial_run.results

    def test_metrics_counters_emitted(self, scenario, serial_run):
        set_metrics(True)
        reset_metrics()
        try:
            with failpoints.inject({"worker.crash": "times:1"}):
                run = _chaos_find(scenario, partition_timeout=30.0, max_retries=2)
            counters = get_registry().counter_values()
            deaths = counters.get(
                'repro_resilience_worker_deaths_total{stage="find"}', 0
            )
            retries = counters.get(
                'repro_resilience_retry_total{kind="death",stage="find"}', 0
            )
            assert deaths == run.partitions
            assert retries == run.partitions
            # Obs exactly-once: the merged relation counters must equal
            # the serial ones despite every partition running twice.
            assert run.stats.relation_counts == serial_run.stats.relation_counts
        finally:
            set_metrics(False)
            reset_metrics()


@fork_only
class TestRelateChaos:
    def test_crash_matches_serial(self, scenario):
        serial = run_relate_parallel(
            T.INTERSECTS, scenario.r_objects, scenario.s_objects, scenario.pairs,
            workers=1,
        )
        with failpoints.inject({"worker.crash": "times:1"}):
            run = run_relate_parallel(
                T.INTERSECTS, scenario.r_objects, scenario.s_objects, scenario.pairs,
                workers=2, partition_timeout=30.0, max_retries=2,
            )
        assert run.matches == serial.matches
        assert run.supervision.worker_deaths == run.partitions


@fork_only
class TestPreprocessChaos:
    def test_crash_matches_serial_build(self, scenario):
        polygons = [obj.polygon for obj in scenario.r_objects]
        grid = scenario.grid
        expected = [build_april(p, grid) for p in polygons]
        with failpoints.inject({"worker.crash": "times:1"}):
            built = build_april_parallel(
                polygons, grid, workers=2, partition_timeout=30.0, max_retries=2
            )
        assert len(built) == len(expected)
        for a, b in zip(built, expected):
            assert (a.p.starts == b.p.starts).all()
            assert (a.p.ends == b.p.ends).all()
            assert (a.c.starts == b.c.starts).all()

    def test_poisoned_preprocess_falls_back(self, scenario):
        polygons = [obj.polygon for obj in scenario.r_objects]
        grid = scenario.grid
        expected = [build_april(p, grid) for p in polygons]
        with failpoints.inject({"worker.crash": "always"}):
            built = build_april_parallel(
                polygons, grid, workers=2, partition_timeout=30.0, max_retries=0
            )
        assert len(built) == len(expected)
        assert (built[0].p.starts == expected[0].p.starts).all()


class TestStateLifecycle:
    def test_serial_paths_leave_state_empty(self, scenario):
        run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs, workers=1
        )
        build_april_parallel(
            [obj.polygon for obj in scenario.r_objects[:4]], scenario.grid, workers=1
        )
        # The one-partition case forks nothing, and the fan-out keeps
        # its state in closures: there is no module global to clear.
        assert multiprocessing.active_children() == []
        assert not hasattr(executor, "_STATE")
        assert not hasattr(preprocess, "_STATE")

    @fork_only
    def test_parallel_paths_leave_state_empty(self, scenario):
        # Every exit path — clean, crash + retry, hang + kill, serial
        # fallback — reaps every worker it forked, hung ones included.
        polygons = [obj.polygon for obj in scenario.r_objects]
        _chaos_find(scenario)
        build_april_parallel(polygons, scenario.grid, workers=2)
        assert multiprocessing.active_children() == []
        with failpoints.inject({"worker.crash": "times:1"}):
            _chaos_find(scenario, max_retries=2)
        assert multiprocessing.active_children() == []
        with failpoints.inject({"worker.hang": "always"}, hang_seconds=30.0):
            build_april_parallel(
                polygons[:16], scenario.grid, workers=2,
                partition_timeout=0.1, max_retries=0,
            )
        assert multiprocessing.active_children() == []

    def test_supervision_report_shape(self):
        report = SupervisionReport(tasks=3)
        d = report.to_dict()
        assert set(d) == {
            "tasks", "retries", "timeouts", "worker_deaths",
            "worker_errors", "fallbacks", "fallback_tasks",
        }
        assert report.clean

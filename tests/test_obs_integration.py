"""Integration tests: observability instrumented through the pipeline.

The contracts under test are the ones the run reports depend on:

- off by default: an uninstrumented run collects nothing;
- span totals reconcile with the stage timers in ``JoinRunStats``;
- tracing/metrics never change results, for any worker count;
- per-worker registries merged in the parent equal the serial run's
  counters *exactly* (timing histograms excluded by construction:
  partition-dependent quantities are recorded only as histograms,
  never counters).
"""

import pytest

from repro import obs
from repro.datasets import load_scenario
from repro.join.pipeline import run_find_relation
from repro.parallel import run_find_relation_parallel, run_relate_parallel
from repro.topology import TopologicalRelation as T


@pytest.fixture(autouse=True)
def obs_off():
    obs.disable_all()
    yield
    obs.disable_all()


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("OLE-OPE", scale=0.3, grid_order=10)


def run_args(scenario):
    return scenario.r_objects, scenario.s_objects, scenario.pairs


class TestDisabledByDefault:
    def test_plain_run_collects_nothing(self, scenario):
        run_find_relation("P+C", *run_args(scenario))
        assert obs.get_spans() == []
        assert obs.get_registry().counter_values() == {}

    def test_parallel_run_collects_nothing(self, scenario):
        run_find_relation_parallel("P+C", *run_args(scenario), workers=2)
        assert obs.get_spans() == []
        assert obs.get_registry().counter_values() == {}


class TestSpanReconciliation:
    def test_serial_totals_match_stage_timers(self, scenario):
        obs.set_tracing(True)
        stats = run_find_relation("P+C", *run_args(scenario))
        totals = obs.span_totals()
        # The acceptance bound: span totals within 5% of the stats
        # timers (plus a small absolute floor for near-zero stages).
        assert totals["filter"] == pytest.approx(
            stats.filter_seconds, rel=0.05, abs=1e-3
        )
        assert totals["refine"] == pytest.approx(
            stats.refine_seconds, rel=0.05, abs=1e-3
        )
        (root,) = obs.get_spans()
        assert root.name == "run_find_relation"
        assert root.seconds >= totals["filter"]

    def test_parallel_span_tree_has_worker_partitions(self, scenario):
        obs.set_tracing(True)
        run = run_find_relation_parallel("P+C", *run_args(scenario), workers=2)
        (root,) = obs.get_spans()
        assert root.name == "parallel_find"
        partitions = [s for s in root.walk() if s.name == "partition"]
        assert len(partitions) == run.partitions
        assert [p.attrs["part"] for p in partitions] == list(range(run.partitions))
        # Aggregate refine spans from the workers reconcile with the
        # merged stats (sums survive pickling exactly).
        assert root.total("refine") == pytest.approx(
            run.stats.refine_seconds, rel=0.05, abs=1e-3
        )


class TestResultsUnchanged:
    def test_find_results_identical_with_obs_on(self, scenario):
        baseline = run_find_relation_parallel(
            "P+C", *run_args(scenario), workers=1
        ).results
        obs.enable_all()
        for workers in (1, 2, 4):
            obs.reset_tracing()
            obs.reset_metrics()
            run = run_find_relation_parallel(
                "P+C", *run_args(scenario), workers=workers
            )
            assert run.results == baseline

    def test_relate_matches_identical_with_obs_on(self, scenario):
        baseline = run_relate_parallel(
            T.INSIDE, *run_args(scenario), workers=1
        ).matches
        obs.enable_all()
        run = run_relate_parallel(T.INSIDE, *run_args(scenario), workers=3)
        assert run.matches == baseline


class TestCounterEquality:
    def test_merged_worker_counters_equal_serial(self, scenario):
        obs.set_metrics(True)
        obs.reset_metrics()
        run_find_relation_parallel("P+C", *run_args(scenario), workers=1)
        serial = obs.get_registry().counter_values()
        assert serial  # the run produced verdict counters

        for workers in (2, 4):
            obs.reset_metrics()
            run_find_relation_parallel(
                "P+C", *run_args(scenario), workers=workers
            )
            assert obs.get_registry().counter_values() == serial

    def test_relate_counters_equal_serial(self, scenario):
        obs.set_metrics(True)
        obs.reset_metrics()
        run_relate_parallel(T.INTERSECTS, *run_args(scenario), workers=1)
        serial = obs.get_registry().counter_values()
        assert any("repro_relate_verdicts_total" in k for k in serial)

        obs.reset_metrics()
        run_relate_parallel(T.INTERSECTS, *run_args(scenario), workers=2)
        assert obs.get_registry().counter_values() == serial

    def test_verdict_counters_sum_to_pair_count(self, scenario):
        obs.set_metrics(True)
        obs.reset_metrics()
        stats = run_find_relation("P+C", *run_args(scenario))
        flat = obs.get_registry().counter_values()
        verdicts = sum(
            v for k, v in flat.items() if k.startswith("repro_verdicts_total")
        )
        assert verdicts == stats.pairs


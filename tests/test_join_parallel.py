"""Tests for the multiprocessing parallel runner (repro.parallel)."""

import numpy as np
import pytest

from repro.datasets import load_scenario
from repro.filters.relate_filters import CODES, RelateVerdict
from repro.join.pipeline import run_find_relation
from repro.parallel import run_find_relation_parallel, run_relate_parallel
from repro.topology import TopologicalRelation as T


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("OLE-OPE", scale=0.3, grid_order=10)


class TestParallel:
    def test_single_worker_falls_back_to_scalar(self, scenario):
        run = run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs, workers=1
        )
        scalar = run_find_relation("P+C", scenario.r_objects, scenario.s_objects, scenario.pairs)
        assert run.stats.relation_counts == scalar.relation_counts
        assert run.wall_seconds > 0
        assert run.workers == 1

    def test_two_workers_same_counts(self, scenario):
        run = run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs, workers=2
        )
        scalar = run_find_relation("P+C", scenario.r_objects, scenario.s_objects, scenario.pairs)
        assert run.stats.pairs == scalar.pairs
        assert run.stats.relation_counts == scalar.relation_counts
        assert run.stats.refined == scalar.refined
        assert run.wall_seconds > 0

    def test_geometry_access_deduplicated(self, scenario):
        run = run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs, workers=2
        )
        scalar = run_find_relation("P+C", scenario.r_objects, scenario.s_objects, scenario.pairs)
        assert run.stats.r_objects_accessed == scalar.r_objects_accessed
        assert run.stats.s_objects_accessed == scalar.s_objects_accessed
        assert run.stats.r_objects_total == len(scenario.r_objects)

    def test_st2_parallel(self, scenario):
        pairs = scenario.pairs[:40]
        run = run_find_relation_parallel(
            "ST2", scenario.r_objects, scenario.s_objects, pairs, workers=2
        )
        scalar = run_find_relation("ST2", scenario.r_objects, scenario.s_objects, pairs)
        assert run.stats.relation_counts == scalar.relation_counts

    def test_empty_pairs(self, scenario):
        run = run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, [], workers=2
        )
        assert run.stats.pairs == 0

    def test_unknown_pipeline_rejected(self, scenario):
        with pytest.raises(KeyError):
            run_find_relation_parallel(
                "NOPE", scenario.r_objects, scenario.s_objects, scenario.pairs
            )


class TestRelateTiming:
    """One timing semantic for relate_p, whatever the worker count:
    ``filter_seconds`` is time inside the Fig. 6 filters, and
    ``refine_seconds`` time inside DE-9IM — never a refined pair's
    filter time (Table 5 is built on that split)."""

    FILTER_SLEEP = 0.005

    @pytest.mark.parametrize("workers", (1, 2))
    def test_filter_time_is_booked_to_filter(self, scenario, workers, monkeypatch):
        import time

        import repro.join.pipeline as pipeline

        def slow_undecided_filter(predicate, r_objects, s_objects, pairs):
            time.sleep(self.FILTER_SLEEP * len(pairs))
            return np.full(len(pairs), CODES[RelateVerdict.UNKNOWN], dtype=np.int8)

        # Forked workers inherit the patch.
        monkeypatch.setattr(pipeline, "relate_verdicts", slow_undecided_filter)
        pairs = scenario.pairs[:16]
        run = run_relate_parallel(
            T.INTERSECTS, scenario.r_objects, scenario.s_objects, pairs, workers=workers
        )
        assert run.workers == workers
        assert (run.stats.refined, run.stats.resolved_if) == (len(pairs), 0)
        assert run.stats.filter_seconds >= len(pairs) * self.FILTER_SLEEP
        if workers == 1:
            assert (
                run.stats.filter_seconds + run.stats.refine_seconds
                <= run.wall_seconds
            )

    def test_counters_agree_across_worker_counts(self, scenario):
        args = (T.INSIDE, scenario.r_objects, scenario.s_objects, scenario.pairs)
        one = run_relate_parallel(*args, workers=1).stats
        two = run_relate_parallel(*args, workers=2).stats
        assert one.resolved_if and one.refined
        assert (one.refined, one.resolved_if) == (two.refined, two.resolved_if)
        assert one.pairs == two.pairs == one.refined + one.resolved_if


class TestRemovedShim:
    """The deprecated ``repro.join.parallel`` shim is gone (v1.2.0).

    It carried the legacy ``(stats, wall)`` signature through the
    promised two-release deprecation window after 1.0; pin its removal
    so a revival is a deliberate act, not an accident.
    """

    def test_legacy_module_is_removed(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.join.parallel  # noqa: F401

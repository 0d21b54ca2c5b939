"""Figure 7 — find-relation performance and filtering effectiveness.

(a) Throughput (MBR-filtered pairs per second) of ST2 / OP2 / APRIL /
P+C on each scenario. Expected shape: ST2 ≈ OP2 ≪ APRIL < P+C, with
P+C up to an order of magnitude above the 2-phase baselines.

(b) Percentage of *undetermined* pairs — pairs whose relation the
method could not settle before DE-9IM refinement. ST2/OP2 refine
(essentially) everything; APRIL removes the provably-disjoint share;
the P+C intermediate filters cut much deeper.

Each throughput is the median of alternating warm runs
(:func:`repro.experiments.fig8.alternating_medians`).
"""

from __future__ import annotations

from functools import lru_cache

from repro.datasets.catalog import DEFAULT_GRID_ORDER, load_scenario
from repro.experiments.common import ALL_METHODS, ALL_SCENARIOS, ExperimentResult
from repro.experiments.fig8 import alternating_medians
from repro.join.pipeline import run_find_relation
from repro.join.stats import JoinRunStats


@lru_cache(maxsize=4)
def _run_all(
    scale: float, grid_order: int, scenarios: tuple[str, ...]
) -> dict[tuple[str, str], JoinRunStats]:
    stats: dict[tuple[str, str], JoinRunStats] = {}
    for scenario_name in scenarios:
        data = load_scenario(scenario_name, scale, grid_order)
        objects = (data.r_objects, data.s_objects, data.pairs)
        medians = alternating_medians({
            method: (lambda m=method: run_find_relation(m, *objects)) for method in ALL_METHODS
        })
        stats.update({(scenario_name, method): run for method, run in medians.items()})
    return stats


def run_fig7a(
    scale: float = 1.0,
    grid_order: int = DEFAULT_GRID_ORDER,
    scenarios: tuple[str, ...] = ALL_SCENARIOS,
) -> ExperimentResult:
    """Fig. 7(a): throughput (pairs/second) per scenario and method."""
    result = ExperimentResult(
        experiment_id="Fig 7(a)",
        title="find relation throughput (pairs per second)",
        columns=("Scenario",) + tuple(ALL_METHODS) + ("P+C / ST2",),
    )
    stats = _run_all(scale, grid_order, scenarios)
    for scenario_name in scenarios:
        per_method = [stats[(scenario_name, m)].throughput for m in ALL_METHODS]
        speedup = per_method[-1] / per_method[0] if per_method[0] > 0 else float("inf")
        result.add_row(scenario_name, *per_method, speedup)
    result.notes.append("expected shape: ST2 ~ OP2 << APRIL < P+C")
    return result


def run_fig7b(
    scale: float = 1.0,
    grid_order: int = DEFAULT_GRID_ORDER,
    scenarios: tuple[str, ...] = ALL_SCENARIOS,
) -> ExperimentResult:
    """Fig. 7(b): % of undetermined (refined) pairs per scenario/method."""
    result = ExperimentResult(
        experiment_id="Fig 7(b)",
        title="% of undetermined pairs (sent to DE-9IM refinement)",
        columns=("Scenario",) + tuple(ALL_METHODS),
    )
    stats = _run_all(scale, grid_order, scenarios)
    for scenario_name in scenarios:
        result.add_row(
            scenario_name,
            *[stats[(scenario_name, m)].undetermined_pct for m in ALL_METHODS],
        )
    result.notes.append(
        "expected shape: ST2 = OP2 ~ 100%; APRIL removes the disjoint share; "
        "P+C cuts far deeper (paper: ~25% on average)"
    )
    return result


__all__ = ["run_fig7a", "run_fig7b"]

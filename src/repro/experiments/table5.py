"""Table 5 — find-relation vs relate_p throughput.

For predicates p ∈ {equals, meets, inside}, compares the throughput of
the general find-relation P+C pipeline (independent of p) against the
predicate-specific relate_p pipeline (Sec. 3.3). Expected shape:
relate_p ≥ find relation for every p, with a dramatic factor for
*meets*, whose non-satisfaction is nearly always provable from one or
two interval merge-joins. Every throughput is the median of alternating
warm runs (:func:`repro.experiments.fig8.alternating_medians`).
"""

from __future__ import annotations

from repro.datasets.catalog import DEFAULT_GRID_ORDER, load_scenario
from repro.experiments.common import ExperimentResult
from repro.experiments.fig8 import alternating_medians
from repro.join.pipeline import run_find_relation, run_relate
from repro.topology.de9im import TopologicalRelation as T

DEFAULT_PREDICATES = (T.EQUALS, T.MEETS, T.INSIDE)


def run_table5(
    scale: float = 1.0,
    grid_order: int = DEFAULT_GRID_ORDER,
    scenario: str = "OLE-OPE",
    predicates: tuple[T, ...] = DEFAULT_PREDICATES,
) -> ExperimentResult:
    """Regenerate Table 5 on the synthetic OLE-OPE analogue."""
    data = load_scenario(scenario, scale, grid_order)
    objects = (data.r_objects, data.s_objects, data.pairs)
    runs = {"find": lambda: run_find_relation("P+C", *objects)}
    runs.update({p: (lambda p=p: run_relate(p, *objects)) for p in predicates})
    medians = alternating_medians(runs)
    find_stats = medians["find"]

    result = ExperimentResult(
        experiment_id="Table 5",
        title=f"find relation vs relate_p throughput (pairs/sec, {scenario})",
        columns=("Method",) + tuple(p.value.title() for p in predicates),
    )
    result.add_row("find relation", *[find_stats.throughput] * len(predicates))
    relate_row = []
    undetermined_row = []
    for predicate in predicates:
        stats = medians[predicate]
        relate_row.append(stats.throughput)
        undetermined_row.append(stats.undetermined_pct)
    result.add_row("relate_p", *relate_row)
    result.add_row(
        "speedup", *[relate_row[k] / find_stats.throughput for k in range(len(predicates))]
    )
    result.add_row("relate_p undetermined %", *undetermined_row)
    result.notes.append(
        "expected shape: relate_p faster for every predicate, and the meets filter "
        "resolves nearly every pair without refinement"
    )
    result.notes.append(
        "throughput ratios are compressed vs the paper: the relate_p filter decides "
        "the whole stream in a few numpy passes, so DE-9IM refinement of the few "
        "undetermined pairs is most of relate_p's time"
    )
    return result


__all__ = ["run_table5"]

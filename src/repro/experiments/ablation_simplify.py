"""Ablation: simplification-based speedups vs the exact P+C filter.

The obvious alternative to the paper's approach is to cut refinement
cost by Douglas-Peucker-simplifying the geometry. This ablation makes
the trade-off concrete on the OLE-OPE analogue: simplified OP2 gets
faster as tolerance grows — and starts returning *wrong relations*,
while P+C achieves its speedup with exact answers.
"""

from __future__ import annotations

from repro.datasets.catalog import DEFAULT_GRID_ORDER, load_scenario
from repro.experiments.common import ExperimentResult
from repro.geometry.simplify import simplify_polygon
from repro.join.objects import make_objects
from repro.join.pipeline import PIPELINES, run_find_relation, verify_find_relation

DEFAULT_TOLERANCES = (0.1, 0.5, 2.0)


def run_ablation_simplify(
    scale: float = 1.0,
    grid_order: int = DEFAULT_GRID_ORDER,
    scenario: str = "OLE-OPE",
    tolerances: tuple[float, ...] = DEFAULT_TOLERANCES,
) -> ExperimentResult:
    """Throughput and answer error of simplify+OP2 vs exact P+C."""
    data = load_scenario(scenario, scale, grid_order)
    result = ExperimentResult(
        experiment_id="Ablation (simplify)",
        title=f"simplification vs exact intermediate filter ({scenario})",
        columns=("Variant", "Avg vertices", "Throughput (pairs/s)", "Wrong relations %"),
    )

    # Exact ground truth (any method; they agree).
    exact = verify_find_relation(PIPELINES["P+C"], data.r_objects, data.s_objects, data.pairs)
    truth = {(i, j): relation for i, j, relation, _ in exact.rows}
    avg_vertices = (
        sum(o.num_vertices for o in data.r_objects + data.s_objects)
        / (len(data.r_objects) + len(data.s_objects))
    )

    op2_stats = run_find_relation("OP2", data.r_objects, data.s_objects, data.pairs)
    result.add_row("OP2 exact", avg_vertices, op2_stats.throughput, 0.0)
    result.add_row("P+C exact", avg_vertices, exact.stats.throughput, 0.0)

    op2 = PIPELINES["OP2"]
    for tolerance in tolerances:
        r_simplified = make_objects(
            [simplify_polygon(o.polygon, tolerance) for o in data.r_objects], grid=None
        )
        s_simplified = make_objects(
            [simplify_polygon(o.polygon, tolerance) for o in data.s_objects], grid=None
        )
        simple_avg = (
            sum(o.num_vertices for o in r_simplified + s_simplified)
            / (len(r_simplified) + len(s_simplified))
        )
        simplified = verify_find_relation(op2, r_simplified, s_simplified, data.pairs)
        stats = simplified.stats
        wrong = sum(
            1 for i, j, relation, _ in simplified.rows if relation is not truth[(i, j)]
        )
        result.add_row(
            f"OP2 simplified tol={tolerance:g}",
            simple_avg,
            stats.throughput,
            100.0 * wrong / max(1, len(data.pairs)),
        )
    result.notes.append(
        "expected shape: simplification buys OP2 throughput at the price of wrong "
        "relations; P+C reaches higher throughput with zero error"
    )
    return result


__all__ = ["run_ablation_simplify"]

"""Figure 9 — case study: a high-complexity lake inside a park.

The paper showcases a level-10-complexity pair whose *inside* relation
the P+C intermediate filter proves outright, while ST2/OP2/APRIL all
fall through to DE-9IM refinement — making P+C ~50x faster on that
single pair. This experiment finds the analogous pair in the synthetic
OLE-OPE scenario (the highest-complexity pair that P+C resolves as
*inside* without refinement), prints its Fig. 9(a)-style statistics
table, and times all four methods on it.
"""

from __future__ import annotations

import time

from repro.datasets.catalog import DEFAULT_GRID_ORDER, load_scenario
from repro.experiments.common import ALL_METHODS, ExperimentResult
from repro.experiments.fig8 import pair_complexity
from repro.join.pipeline import PIPELINES, verify_find_relation
from repro.topology.de9im import TopologicalRelation as T


def run_fig9(
    scale: float = 1.0,
    grid_order: int = DEFAULT_GRID_ORDER,
    scenario: str = "OLE-OPE",
    repeats: int = 5,
) -> ExperimentResult:
    """Find and profile the showcase pair (lake inside park)."""
    data = load_scenario(scenario, scale, grid_order)
    pc = PIPELINES["P+C"]

    best_pair: tuple[int, int] | None = None
    best_complexity = -1
    rows = verify_find_relation(pc, data.r_objects, data.s_objects, data.pairs).rows
    for i, j, relation, filtered in rows:
        if relation is T.INSIDE and filtered:
            pair = (i, j)
            complexity = pair_complexity(data, pair)
            if complexity > best_complexity:
                best_complexity = complexity
                best_pair = pair

    result = ExperimentResult(
        experiment_id="Fig 9",
        title=f"case study: highest-complexity IF-resolved inside pair ({scenario})",
        columns=("Statistic", "Lake (r)", "Park (s)"),
    )
    if best_pair is None:
        result.notes.append(
            "no IF-resolved inside pair found at this scale; rerun with a larger --scale"
        )
        return result

    i, j = best_pair
    lake = data.r_objects[i]
    park = data.s_objects[j]
    result.add_row("Vertices", lake.num_vertices, park.num_vertices)
    result.add_row("MBR area", lake.box.area, park.box.area)
    result.add_row("C-intervals", len(lake.require_april().c), len(park.require_april().c))
    result.add_row("P-intervals", len(lake.require_april().p), len(park.require_april().p))

    # Per-method timing on the single showcase pair.
    timings: dict[str, float] = {}
    for method in ALL_METHODS:
        pipeline = PIPELINES[method]
        start = time.perf_counter()
        for _ in range(repeats):
            outcome = pipeline.find_relation(lake, park)
        timings[method] = (time.perf_counter() - start) / repeats
        assert outcome.relation is T.INSIDE
    baseline = max(timings[m] for m in ("ST2", "OP2", "APRIL"))
    result.notes.append(
        "per-pair find relation time (ms): "
        + ", ".join(f"{m}={timings[m] * 1e3:.3f}" for m in ALL_METHODS)
    )
    result.notes.append(
        f"P+C speedup on this pair vs slowest refining method: "
        f"{baseline / timings['P+C']:.1f}x (paper reports ~50x)"
    )
    result.notes.append(f"pair complexity (sum of vertices): {best_complexity}")
    return result


__all__ = ["run_fig9"]

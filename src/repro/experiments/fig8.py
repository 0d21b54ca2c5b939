"""Table 4 and Figure 8 — scalability with object-pair complexity.

The OLE-OPE candidate pairs are split into 10 complexity levels of
(approximately) equal population, where a pair's complexity is the sum
of its two polygons' vertex counts (Table 4). Then:

- Fig. 8(a): % of pairs P+C leaves undetermined, per level. Expected
  shape: falls steeply with complexity (paper: ~80% at level 1, ~5% at
  level 10) — simple objects raster to few/no full cells, complex ones
  to plenty.
- Fig. 8(b): total time per level of OP2's refinement (OP2-REF), the
  P+C intermediate filter (P+C-IF), and P+C's residual refinement
  (P+C-REF). Expected shape: OP2-REF grows superlinearly; the P+C
  total stays nearly flat because fewer and fewer pairs are refined.
  Each level's timings are the median of ``TIMING_RUNS`` warm runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Hashable

from repro.datasets.catalog import DEFAULT_GRID_ORDER, ScenarioData, load_scenario
from repro.experiments.common import ExperimentResult
from repro.join.pipeline import run_find_relation
from repro.join.stats import JoinRunStats

NUM_LEVELS = 10
DEFAULT_SCENARIO = "OLE-OPE"
#: Fig. 8(b) is a timing shape: each level's OP2 and P+C joins run this
#: many times and the run with the median ``total_seconds`` is kept, so
#: one slow sample cannot invert it. Fig. 7 and Table 5 time the same way.
TIMING_RUNS = 5


def pair_complexity(data: ScenarioData, pair: tuple[int, int]) -> int:
    """The paper's complexity measure: total vertices of the pair."""
    i, j = pair
    return data.r_objects[i].num_vertices + data.s_objects[j].num_vertices


@lru_cache(maxsize=4)
def _levels(
    scenario: str, scale: float, grid_order: int
) -> tuple[ScenarioData, list[list[tuple[int, int]]], list[tuple[int, int]]]:
    """Split a scenario's pairs into equal-population complexity levels.

    Returns the scenario, the per-level pair lists, and the per-level
    (min, max) complexity ranges.
    """
    data = load_scenario(scenario, scale, grid_order)
    ranked = sorted(data.pairs, key=lambda pair: pair_complexity(data, pair))
    n = len(ranked)
    levels: list[list[tuple[int, int]]] = []
    ranges: list[tuple[int, int]] = []
    for level in range(NUM_LEVELS):
        chunk = ranked[level * n // NUM_LEVELS : (level + 1) * n // NUM_LEVELS]
        levels.append(chunk)
        if chunk:
            ranges.append(
                (pair_complexity(data, chunk[0]), pair_complexity(data, chunk[-1]))
            )
        else:
            ranges.append((0, 0))
    return data, levels, ranges


def run_table4(
    scale: float = 1.0,
    grid_order: int = DEFAULT_GRID_ORDER,
    scenario: str = DEFAULT_SCENARIO,
) -> ExperimentResult:
    """Table 4: complexity-level grouping of the OLE-OPE pairs."""
    _, levels, ranges = _levels(scenario, scale, grid_order)
    result = ExperimentResult(
        experiment_id="Table 4",
        title=f"{scenario} post-MBR pairs grouped by complexity level",
        columns=("Complexity level", "Sum of vertices", "Pair count"),
    )
    for level, (chunk, (lo, hi)) in enumerate(zip(levels, ranges), start=1):
        result.add_row(level, f"[{lo},{hi}]", len(chunk))
    result.notes.append("levels hold (approximately) equal pair populations")
    return result


def _median_run(runs: list[JoinRunStats]) -> JoinRunStats:
    return sorted(runs, key=lambda stats: stats.total_seconds)[len(runs) // 2]


def alternating_medians(
    runs: dict[Hashable, Callable[[], JoinRunStats]],
) -> dict[Hashable, JoinRunStats]:
    """The median run (:func:`_median_run`) of each of ``runs``: one
    untimed warm-up of each, then ``TIMING_RUNS`` rounds that run them
    in turn, so that first-use costs stay out and a drift in machine
    speed slows every run alike."""
    for run in runs.values():
        run()
    samples: dict[Hashable, list[JoinRunStats]] = {key: [] for key in runs}
    for _ in range(TIMING_RUNS):
        for key, run in runs.items():
            samples[key].append(run())
    return {key: _median_run(stats) for key, stats in samples.items()}


@lru_cache(maxsize=4)
def _per_level_stats(
    scenario: str, scale: float, grid_order: int
) -> tuple[list[JoinRunStats], list[JoinRunStats]]:
    data, levels, _ = _levels(scenario, scale, grid_order)
    op2: list[JoinRunStats] = []
    pc: list[JoinRunStats] = []
    for chunk in levels:
        medians = alternating_medians({
            method: (lambda m=method: run_find_relation(m, data.r_objects, data.s_objects, chunk))
            for method in ("OP2", "P+C")
        })
        op2.append(medians["OP2"])
        pc.append(medians["P+C"])
    return op2, pc


def run_fig8a(
    scale: float = 1.0,
    grid_order: int = DEFAULT_GRID_ORDER,
    scenario: str = DEFAULT_SCENARIO,
) -> ExperimentResult:
    """Fig. 8(a): P+C % undetermined per complexity level."""
    _, pc = _per_level_stats(scenario, scale, grid_order)
    result = ExperimentResult(
        experiment_id="Fig 8(a)",
        title=f"P+C filtering effectiveness by complexity level ({scenario})",
        columns=("Complexity level", "Pairs", "P+C undetermined %"),
    )
    for level, stats in enumerate(pc, start=1):
        result.add_row(level, stats.pairs, stats.undetermined_pct)
    result.notes.append(
        "expected shape: undetermined share falls sharply as complexity grows"
    )
    return result


def run_fig8b(
    scale: float = 1.0,
    grid_order: int = DEFAULT_GRID_ORDER,
    scenario: str = DEFAULT_SCENARIO,
) -> ExperimentResult:
    """Fig. 8(b): per-level cost of OP2-REF vs P+C-IF vs P+C-REF."""
    op2, pc = _per_level_stats(scenario, scale, grid_order)
    result = ExperimentResult(
        experiment_id="Fig 8(b)",
        title=f"find relation cost by complexity level ({scenario}), seconds",
        columns=("Complexity level", "OP2-REF", "P+C-IF", "P+C-REF", "P+C total"),
    )
    for level in range(NUM_LEVELS):
        result.add_row(
            level + 1,
            op2[level].refine_seconds,
            pc[level].filter_seconds,
            pc[level].refine_seconds,
            pc[level].total_seconds,
        )
    result.notes.append(
        "expected shape: OP2-REF grows superlinearly with level; P+C total "
        "stays nearly flat (fewer pairs refined compensates costlier refinement)"
    )
    return result


__all__ = ["pair_complexity", "run_fig8a", "run_fig8b", "run_table4"]

"""Extension experiment: link-discovery recall on derived ground truth.

Real interlinking evaluations measure how many known links a system
finds. We derive a second lakes dataset with controlled relations
(copies / shrunk / grown / moved / shifted, verified at derivation
time), interlink source-vs-derived with the P+C pipeline, and report
per-relation recall plus how much of the work the intermediate filter
absorbed. Expected: 100% recall for every relation (the pipeline is
exact) with the bulk of pairs resolved without DE-9IM.
"""

from __future__ import annotations

from collections import Counter

from repro.datasets.catalog import DEFAULT_GRID_ORDER, load_dataset
from repro.datasets.derive import derive_dataset
from repro.experiments.common import ExperimentResult
from repro.geometry.box import Box
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import make_objects
from repro.join.pipeline import PIPELINES, verify_find_relation
from repro.raster.grid import RasterGrid
from repro.topology.de9im import TopologicalRelation as T


def run_interlink_quality(
    scale: float = 1.0,
    grid_order: int = DEFAULT_GRID_ORDER,
    source_dataset: str = "OLE",
    seed: int = 7,
) -> ExperimentResult:
    """Recall of find-relation interlinking against derived ground truth."""
    source = load_dataset(source_dataset, scale).polygons
    derived = derive_dataset(source, seed=seed)

    extent = Box.union_all(
        [p.bbox for p in source] + [p.bbox for p in derived.polygons]
    ).expanded(1e-6)
    grid = RasterGrid(extent, order=grid_order)
    r_objects = make_objects(source, grid)
    s_objects = make_objects(derived.polygons, grid)

    pairs = plane_sweep_mbr_join([o.box for o in r_objects], [o.box for o in s_objects])
    pair_set = set(pairs)

    rows = verify_find_relation(PIPELINES["P+C"], r_objects, s_objects, pairs).rows
    # (relation, decided without refinement) per candidate pair.
    found: dict[tuple[int, int], tuple[T, bool]] = {
        (i, j): (relation, filtered) for i, j, relation, filtered in rows
    }

    totals: Counter = Counter()
    recalled: Counter = Counter()
    filtered: Counter = Counter()
    for index in range(len(source)):
        truth = derived.expected_relation(index)
        totals[truth] += 1
        if truth is T.DISJOINT:
            # Ground truth disjoint: correct iff the pair never passed
            # the MBR filter, or it did and was classified disjoint.
            if (index, index) not in pair_set:
                recalled[truth] += 1
                filtered[truth] += 1
                continue
        relation, by_filter = found.get((index, index), (T.DISJOINT, True))
        if relation is truth:
            recalled[truth] += 1
            if by_filter:
                filtered[truth] += 1

    result = ExperimentResult(
        experiment_id="Interlink quality",
        title=f"recall on derived ground truth ({source_dataset} vs derived)",
        columns=("True relation", "Pairs", "Recall %", "Resolved by filter %"),
    )
    for relation in (T.EQUALS, T.CONTAINS, T.INSIDE, T.INTERSECTS, T.DISJOINT, T.MEETS,
                     T.COVERS, T.COVERED_BY):
        if totals[relation] == 0:
            continue
        result.add_row(
            relation.value,
            totals[relation],
            100.0 * recalled[relation] / totals[relation],
            100.0 * filtered[relation] / totals[relation],
        )
    result.notes.append(
        "expected shape: 100% recall everywhere (the pipeline is exact); the filter "
        "column shows how rarely DE-9IM was needed per relation class"
    )
    return result


__all__ = ["run_interlink_quality"]

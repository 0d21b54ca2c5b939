"""Table 2 — description of datasets.

Columns mirror the paper: entity type, polygon count, exact-geometry
size, MBR size, and the P+C approximation size on the scenario grid.
Sizes are reported in KiB (the paper uses MB at its far larger scale).
"""

from __future__ import annotations

from repro.datasets.catalog import (
    DATASETS,
    DEFAULT_GRID_ORDER,
    REGION,
    load_dataset,
)
from repro.experiments.common import ExperimentResult
from repro.raster.april import build_april_many
from repro.raster.grid import RasterGrid


def run_table2(scale: float = 1.0, grid_order: int = DEFAULT_GRID_ORDER) -> ExperimentResult:
    """Regenerate Table 2 for the synthetic dataset catalog."""
    result = ExperimentResult(
        experiment_id="Table 2",
        title="Description of datasets",
        columns=("Dataset", "Entity type", "#polygons", "Size (KiB)", "MBRs (KiB)", "P+C (KiB)"),
    )
    grid = RasterGrid(REGION.expanded(1e-6), order=grid_order)
    for name, (description, _) in DATASETS.items():
        dataset = load_dataset(name, scale)
        approx_bytes = sum(a.nbytes for a in build_april_many(dataset.polygons, grid))
        result.add_row(
            name,
            description,
            dataset.num_polygons,
            dataset.geometry_nbytes / 1024.0,
            dataset.mbr_nbytes / 1024.0,
            approx_bytes / 1024.0,
        )
    result.notes.append(
        f"synthetic analogues at scale={scale}, grid 2^{grid_order} per dimension "
        "(paper: TIGER/OSM at full scale, 2^16 grid)"
    )
    result.notes.append(
        "expected shape: P+C size is a small fraction of exact geometry size"
    )
    return result


__all__ = ["run_table2"]

"""Parallel APRIL preprocessing.

Rasterisation is the dominant preprocessing cost (the APRIL paper
reports it dwarfing join time for fine grids), and every polygon is
rasterised independently — a perfect fan-out. The dataset is cut into
contiguous chunks of its geometry columns; forked workers inherit them
with the task closure (copy-on-write numpy buffers, nothing pickled per
task); each builds its chunk with one
:func:`~repro.raster.april.build_april_many` call, and only the
chunk's store of interval lists travels back through the result pipe.

Stays serial for ``workers <= 1``, tiny inputs and platforms without
``fork``. The fan-out itself runs under the supervised workers
(:mod:`repro.resilience.supervisor`): a crashed or hung worker costs a
bounded retry, and a chunk whose result cannot come back through the
pipe is rebuilt serially in-parent — never silently, always counted in
``repro_resilience_fallback_total{stage="preprocess"}`` — so the caller
always gets the exact serial result. A genuinely broken polygon still
raises: the serial fallback recomputes it in-parent and surfaces the
original error.
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry.columns import GeometryColumns
from repro.geometry.polygon import Polygon
from repro.obs.metrics import metrics_enabled
from repro.obs.trace import trace
from repro.raster.april import AprilColumns, build_april_many, observe_april_metrics
from repro.raster.grid import RasterGrid
from repro.resilience.failpoints import maybe_fail_worker
from repro.parallel.chunking import chunk_pairs
from repro.parallel.executor import default_workers, fork_available

#: Below this input size the pool startup dominates; stay serial.
MIN_PARALLEL_POLYGONS = 8


def build_april_parallel(
    polygons: "Sequence[Polygon] | GeometryColumns",
    grid: RasterGrid,
    workers: int | None = None,
    partition_timeout: float | None = None,
    max_retries: int | None = None,
) -> AprilColumns:
    """APRIL approximations for ``polygons`` (a polygon sequence or
    geometry columns), one store row each, in input order.

    Bit-identical to ``build_april_many(polygons, grid)`` for every
    worker count and every worker failure schedule.
    """
    columns = GeometryColumns.of(polygons)
    if workers is None:
        workers = default_workers()
    if (
        workers <= 1
        or len(columns) < MIN_PARALLEL_POLYGONS
        or not fork_available()
    ):
        return build_april_many(columns, grid)

    from repro.resilience.supervisor import supervised_map

    chunks = [columns[c[0] : c[-1] + 1] for c in chunk_pairs(range(len(columns)), workers)]

    def build_chunk(chunk_index: int) -> AprilColumns:
        return build_april_many(chunks[chunk_index], grid)

    def worker(task: tuple[int, int]) -> AprilColumns:
        chunk_index, attempt = task
        maybe_fail_worker(chunk_index, attempt)
        return build_chunk(chunk_index)

    with trace("build_april_parallel", count=len(columns), workers=workers):
        parts, report = supervised_map(
            worker,
            len(chunks),
            workers=workers,
            serial_runner=build_chunk,
            stage="preprocess",
            partition_timeout=partition_timeout,
            max_retries=max_retries,
        )
    if metrics_enabled():
        # Worker registries from this pool are discarded with the
        # workers; recording parent-side keeps the interval-size
        # distributions identical to a serial build. A chunk rebuilt
        # in-parent was recorded by its build already.
        rebuilt = set(report.fallback_tasks)
        for index, part in enumerate(parts):
            if index not in rebuilt:
                observe_april_metrics(part)
    return AprilColumns.concat(parts)


__all__ = ["MIN_PARALLEL_POLYGONS", "build_april_parallel"]

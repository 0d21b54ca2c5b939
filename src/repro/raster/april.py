"""APRIL approximations: Progressive + Conservative Hilbert interval lists.

For an object ``o`` on a grid ``G``:

- ``P`` (Progressive) — intervals over the Hilbert ids of cells entirely
  inside the *interior* of ``o``; a progressive approximation: every
  ``P`` cell certifies area that definitely belongs to ``o``.
- ``C`` (Conservative) — intervals over the ids of all cells fully or
  partially covered by ``o`` (``P``'s cells plus every boundary cell);
  any point of ``o`` lies in some ``C`` cell.

These invariants (``P ⊆ C``; ``P`` cells avoid the boundary; ``C``
covers the object) are exactly what the Sec. 3.2 intermediate filters
rely on, and are property-tested in ``tests/test_raster_april.py``.

:func:`build_april_many` is the one producer: it takes a dataset as
columns (:class:`~repro.geometry.columns.GeometryColumns` — MBRs and
flat edge arrays, no ``Polygon`` objects; a polygon sequence is
flattened once), cuts it into batches of at most ``_BATCH_CELLS``
window cells, rasterises each batch in one pass
(:func:`~repro.raster.rasterize.rasterize_batch`), maps all of the
batch's cells to Hilbert ids at once and sorts them under a
``(geometry, id)`` key. The cells come from boolean masks, so the ids
are already unique and a sort — not a hash ``unique`` — orders them;
an interval breaks wherever consecutive keys differ by more than one,
and each geometry takes its slice. :func:`build_april` is the batch of
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.geometry.columns import GeometryColumns
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.trace import trace
from repro.raster import kernels
from repro.raster.grid import RasterGrid
from repro.raster.intervals import EMPTY_INTERVALS, IntervalList
from repro.raster.rasterize import CellWindows, rasterize_batch

if TYPE_CHECKING:  # pragma: no cover
    from repro.geometry.polygon import Polygon

#: Window cells per rasterisation batch; a geometry whose window alone
#: exceeds it is a batch of its own. Large enough that the fixed numpy
#: cost of a batch is shared by dozens of small polygons, small enough
#: that the batch buffers stay a rounding error of the peak RSS.
_BATCH_CELLS = 2_048


@dataclass(frozen=True)
class AprilApproximation:
    """The P and C interval lists of one object on one grid."""

    grid: RasterGrid
    p: IntervalList
    c: IntervalList

    @property
    def nbytes(self) -> int:
        """Approximation storage footprint (paper Table 2's ``P+C`` column)."""
        return self.p.nbytes + self.c.nbytes

    @property
    def has_full_cells(self) -> bool:
        """The ``|P| > 0`` test of the IFInside/IFContains flow diagrams."""
        return bool(self.p)

    def check_compatible(self, other: "AprilApproximation") -> None:
        if not self.grid.compatible_with(other.grid):
            raise ValueError(
                "APRIL approximations built on different grids cannot be compared"
            )


def build_april(
    polygon: "Polygon",
    grid: RasterGrid,
    max_cells: int = 64_000_000,
) -> AprilApproximation:
    """Rasterise ``polygon`` on ``grid`` and build its P and C lists."""
    return build_april_many([polygon], grid, max_cells=max_cells)[0]


def observe_april_metrics(approx: AprilApproximation) -> None:
    """Record one approximation's interval-list size distributions.

    Called by :func:`build_april_many` once per object; the parallel
    preprocessor calls it parent-side for pool-built approximations
    (whose worker registries are discarded), keeping the counts
    identical to a serial build for every worker count.
    """
    registry = get_registry()
    # One increment per rasterised object: the warm-path proof counter.
    # A join served entirely from the store (loaded approximations)
    # never increments it, which is what the store smoke tests assert.
    registry.inc("repro_april_built_total")
    registry.observe("repro_april_intervals", len(approx.p), list="p")
    registry.observe("repro_april_intervals", len(approx.c), list="c")
    registry.observe("repro_april_bytes", approx.nbytes)


def build_april_many(
    geometries: "Iterable[Polygon] | GeometryColumns",
    grid: RasterGrid,
    max_cells: int = 64_000_000,
) -> list[AprilApproximation]:
    """Build approximations for a whole dataset (the preprocessing step).

    Raises :class:`~repro.raster.rasterize.RasterizationError` before
    building anything when some geometry's MBR covers more than
    ``max_cells`` cells.
    """
    columns = GeometryColumns.of(geometries)
    with trace("build_april_many", count=len(columns)):
        windows = CellWindows.of(columns.boxes, grid, max_cells)
        approximations: list[AprilApproximation] = []
        for part in _batches(windows.width * windows.height):
            batch = windows[part]
            marked, full = rasterize_batch(columns[part], grid, batch)
            p_lists, c_lists = _interval_lists(grid, batch, marked, full)
            approximations += [
                AprilApproximation(grid=grid, p=p, c=c) for p, c in zip(p_lists, c_lists)
            ]
    if metrics_enabled():
        for approx in approximations:
            observe_april_metrics(approx)
    return approximations


def _batches(cells: np.ndarray) -> list[slice]:
    """Consecutive runs of windows holding at most ``_BATCH_CELLS``
    cells between them, or one window that alone holds more."""
    parts = []
    start = held = 0
    for k, n in enumerate(cells.tolist()):
        if held and held + n > _BATCH_CELLS:
            parts.append(slice(start, k))
            start, held = k, 0
        held += n
    if cells.size:
        parts.append(slice(start, cells.size))
    return parts


def _interval_lists(
    grid: RasterGrid, windows: CellWindows, marked: np.ndarray, full: np.ndarray
) -> tuple[list[IntervalList], list[IntervalList]]:
    """Every window's P (``full`` cells) and C (``full | marked``) lists."""
    cells = np.flatnonzero(marked | full)
    window, col, row = windows.cells(cells)
    # A guard bit above the largest id keeps one window's last id and
    # the next window's first from ever being consecutive keys.
    shift = 2 * grid.order + 1
    keys = (window << shift) | grid.hilbert_ids_bulk(col, row)
    p_keys = np.sort(keys[full[cells]])
    keys.sort()
    return (
        _split_intervals(p_keys, shift, len(windows)),
        _split_intervals(keys, shift, len(windows)),
    )


def _split_intervals(keys: np.ndarray, shift: int, count: int) -> list[IntervalList]:
    """Coalesce sorted unique ``(window << shift) | id`` keys into one
    interval list per window."""
    if keys.size == 0:
        return [EMPTY_INTERVALS] * count
    first, end = kernels.runs(keys)
    # An id is below 2**(shift - 1), so ``end`` never carries into the
    # window bits.
    mask = (1 << shift) - 1
    starts = first & mask
    ends = end & mask
    bounds = np.searchsorted(first >> shift, np.arange(count + 1)).tolist()
    return [
        IntervalList._from_arrays(starts[a:b], ends[a:b]) if b > a else EMPTY_INTERVALS
        for a, b in zip(bounds, bounds[1:])
    ]


__all__ = [
    "AprilApproximation",
    "build_april",
    "build_april_many",
    "observe_april_metrics",
]

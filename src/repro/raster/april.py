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
and each geometry takes its row. :func:`build_april` is the batch of
one.

What a build, a payload decode or a raw payload read produces is one
:class:`AprilColumns` per dataset and grid: the P and C lists of every
object as flat CSR arrays (:class:`~repro.raster.intervals.ListColumns`),
row ``k`` object ``k``'s. The filter gathers its operands from it by
object id; an :class:`AprilApproximation` is a view of one row, made
when it is read and never kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.geometry.columns import GeometryColumns
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.trace import trace
from repro.raster import kernels
from repro.raster.grid import RasterGrid
from repro.raster.intervals import EMPTY_INTERVALS, IntervalList, ListColumns
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


class AprilColumns(Sequence):
    """The APRIL lists of a whole dataset on one grid: row ``k`` of
    ``p`` and of ``c`` is object ``k``'s. Item ``k`` is object ``k``'s
    :class:`AprilApproximation`, a view made on each read (``None`` for
    a row not built yet).

    ``built`` marks the rows that have lists (``None``: every row does).
    ``boxes`` (``(n, 4)``: ``xmin, ymin, xmax, ymax``) and ``connected``
    are the objects' other filter facts, when the store serves a filter
    (:mod:`repro.filters.pair_bits`). ``grid`` is ``None`` for a store
    packed from lists built on incompatible grids: the filter refuses
    to compare it.
    """

    __slots__ = ("grid", "p", "c", "built", "boxes", "connected")

    def __init__(
        self,
        grid: RasterGrid | None,
        p: ListColumns,
        c: ListColumns,
        built: np.ndarray | None = None,
        boxes: np.ndarray | None = None,
        connected: np.ndarray | None = None,
    ) -> None:
        self.grid, self.p, self.c, self.built = grid, p, c, built
        self.boxes, self.connected = boxes, connected

    @classmethod
    def unbuilt(
        cls, grid: RasterGrid | None, boxes: np.ndarray, connected: np.ndarray
    ) -> "AprilColumns":
        """A store of ``len(boxes)`` objects none of whose lists is built."""
        none = np.empty(0, dtype=np.int64)
        empty = ListColumns(none, none, np.zeros(len(boxes) + 1, dtype=np.int64))
        return cls(grid, empty, empty, np.zeros(len(boxes), dtype=bool), boxes, connected)

    @classmethod
    def of(
        cls, aprils: Sequence, boxes: Sequence | None = None, connected: Sequence | None = None
    ) -> "AprilColumns":
        """``aprils`` as a store, one row each (``None``: an object with
        no lists); a store passes through. ``boxes`` (any objects with
        ``xmin``…``ymax``) and ``connected`` are the objects' filter facts."""
        if isinstance(aprils, cls) and boxes is None:
            return aprils
        present = [a for a in aprils if a is not None]
        grid = present[0].grid if present else None
        if any(not a.grid.compatible_with(grid) for a in present):
            grid = None
        built = None
        if len(present) < len(aprils):
            built = np.array([a is not None for a in aprils], dtype=bool)
        if boxes is not None:
            boxes = np.array(
                [(b.xmin, b.ymin, b.xmax, b.ymax) for b in boxes], dtype=np.float64
            ).reshape(-1, 4)
            connected = np.asarray(connected, dtype=bool)
        return cls(
            grid,
            ListColumns.of([EMPTY_INTERVALS if a is None else a.p for a in aprils]),
            ListColumns.of([EMPTY_INTERVALS if a is None else a.c for a in aprils]),
            built, boxes, connected,
        )

    @classmethod
    def concat(cls, parts: Sequence["AprilColumns"]) -> "AprilColumns":
        """The rows of built stores on one grid, one store after the other."""
        return cls(
            parts[0].grid,
            ListColumns.concat([part.p for part in parts]),
            ListColumns.concat([part.c for part in parts]),
        )

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, k: int) -> "AprilApproximation | None":
        if self.built is not None and not self.built[k]:
            return None
        return AprilApproximation(self.grid, self.p[k], self.c[k])

    @property
    def nbytes(self) -> int:
        """Two 64-bit words per interval, as :attr:`AprilApproximation.nbytes`."""
        return 16 * (self.p.starts.size + self.c.starts.size)

    def take(self, ids) -> "AprilColumns":
        """Rows ``ids`` of a built store (any order, repeats allowed)."""
        return AprilColumns(self.grid, self.p.take(ids), self.c.take(ids))

    def fill(self, ids: np.ndarray, lists: "AprilColumns") -> None:
        """Give rows ``ids`` (distinct, ascending) the rows of the built
        store ``lists``, in place; the other rows keep theirs."""
        if len(ids) == len(self):  # every row, in order: adopt the lists
            self.p, self.c, self.built = lists.p, lists.c, None
            return
        order = np.arange(len(self))
        order[ids] = len(self) + np.arange(len(ids))
        self.p = ListColumns.concat([self.p, lists.p]).take(order)
        self.c = ListColumns.concat([self.c, lists.c]).take(order)
        self.built[ids] = True
        if self.built.all():
            self.built = None


def build_april(
    polygon: "Polygon",
    grid: RasterGrid,
    max_cells: int = 64_000_000,
) -> AprilApproximation:
    """Rasterise ``polygon`` on ``grid`` and build its P and C lists."""
    return build_april_many([polygon], grid, max_cells=max_cells)[0]


def observe_april_metrics(aprils: AprilColumns) -> None:
    """Record the interval-list size distributions of built objects.

    Called by :func:`build_april_many` once per build; the parallel
    preprocessor calls it parent-side for pool-built stores (whose
    worker registries are discarded), keeping the counts identical to
    a serial build for every worker count.
    """
    registry = get_registry()
    for p, c in zip(aprils.p.lengths.tolist(), aprils.c.lengths.tolist()):
        # One increment per rasterised object: the warm-path proof
        # counter. A join served entirely from the store (loaded
        # approximations) never increments it, which is what the store
        # smoke tests assert.
        registry.inc("repro_april_built_total")
        registry.observe("repro_april_intervals", p, list="p")
        registry.observe("repro_april_intervals", c, list="c")
        registry.observe("repro_april_bytes", 16 * (p + c))


def build_april_many(
    geometries: "Iterable[Polygon] | GeometryColumns",
    grid: RasterGrid,
    max_cells: int = 64_000_000,
) -> AprilColumns:
    """Build approximations for a whole dataset (the preprocessing step).

    Raises :class:`~repro.raster.rasterize.RasterizationError` before
    building anything when some geometry's MBR covers more than
    ``max_cells`` cells.
    """
    columns = GeometryColumns.of(geometries)
    with trace("build_april_many", count=len(columns)):
        windows = CellWindows.of(columns.boxes, grid, max_cells)
        p_parts, c_parts = [], []
        for part in _batches(windows.width * windows.height):
            batch = windows[part]
            marked, full = rasterize_batch(columns[part], grid, batch)
            p, c = _interval_lists(grid, batch, marked, full)
            p_parts.append(p)
            c_parts.append(c)
    aprils = AprilColumns(grid, ListColumns.concat(p_parts), ListColumns.concat(c_parts))
    if metrics_enabled():
        observe_april_metrics(aprils)
    return aprils


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
) -> tuple[ListColumns, ListColumns]:
    """Every window's P (``full`` cells) and C (``full | marked``) lists."""
    cells = np.flatnonzero(marked | full)
    window, col, row = windows.cells(cells)
    # A guard bit above the largest id keeps one window's last id and
    # the next window's first from ever being consecutive keys.
    shift = 2 * grid.order + 1
    keys = (window << shift) | grid.hilbert_ids_bulk(col, row)
    lists = []
    for chosen in (np.sort(keys[full[cells]]), np.sort(keys)):
        # Coalesce the sorted unique keys into runs; an id is below
        # 2**(shift - 1), so a run's end never carries into the window bits.
        first, end = kernels.runs(chosen) if chosen.size else (chosen, chosen)
        offsets = np.searchsorted(first >> shift, np.arange(len(windows) + 1))
        lists.append(ListColumns(first & ((1 << shift) - 1), end & ((1 << shift) - 1), offsets))
    return lists[0], lists[1]


__all__ = [
    "AprilApproximation",
    "AprilColumns",
    "build_april",
    "build_april_many",
    "observe_april_metrics",
]

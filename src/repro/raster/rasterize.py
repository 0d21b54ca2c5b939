"""Conservative polygon rasterisation, a batch of geometries at a time.

Splits the grid cells under each geometry's MBR into three classes:

- **partial** — cells whose closed extent is touched by the polygon
  *boundary* (marked conservatively: a cell is never missed, it may at
  worst be over-marked, which only moves a would-be-full cell into the
  conservative class);
- **full** — untouched cells whose extent lies entirely in the polygon
  interior;
- empty — untouched cells entirely outside.

A batch lays the MBR cell windows of its geometries end to end in one
flat row-major buffer (:class:`CellWindows`), takes the edges of every
ring of every geometry from their columns
(:meth:`~repro.geometry.columns.GeometryColumns.edge_arrays`), and
classifies all of their cells in a fixed number of numpy passes,
whatever the batch size:

1. **Boundary marking.** All grid-line crossings of all edges come from
   one floor/ceil sweep, a lexsort orders them along each edge, and the
   cell of every crossing point and every inter-crossing span midpoint
   is scatter-marked into its geometry's window. Points that land
   exactly on a grid line mark both sides (all four cells at a grid
   corner), which handles edges running along grid lines and exact
   corner crossings.
2. **Scanline parity fill.** At each window row's centre line the same
   half-open straddle test as the even-odd point-in-polygon rule picks
   the crossing edges; each crossing toggles every cell whose centre
   lies to its right, so the parity of a ``bincount`` cumulated along
   the row is the even-odd status of each cell centre. Marked cells are
   dropped from it.

Classifying an untouched cell by its centre alone rests on the
*uniform-run lemma*: two edge-adjacent untouched cells cannot differ in
status, because the boundary would have to cross their shared (closed)
edge and would then touch — and mark — both cells. So an untouched cell
lies wholly inside or wholly outside, and its centre is at least half a
cell from every crossing, far beyond the rounding of the crossing's
position.

The per-edge and per-run walks this replaced are its oracle
(``tests/oracles/rasterize.py``); the marking evaluates the same IEEE
expressions, and the differential suite demands bit-identical grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.geometry.columns import GeometryColumns

if TYPE_CHECKING:  # pragma: no cover
    from repro.geometry.polygon import Polygon
    from repro.raster.grid import RasterGrid


class RasterizationError(ValueError):
    """Raised when a polygon's MBR covers too many cells to rasterise."""


@dataclass(frozen=True)
class RasterCells:
    """Rasterisation result in global integer cell coordinates.

    ``partial`` and ``full`` are ``(N, 2)`` int64 arrays of
    ``(col, row)`` pairs; together they are the conservative cell set.
    """

    partial: np.ndarray
    full: np.ndarray


@dataclass(frozen=True)
class CellWindows:
    """The MBR cell windows of a sequence of geometries, laid end to end.

    Window ``k`` covers columns ``col_lo[k] .. col_lo[k] + width[k] - 1``
    and rows ``row_lo[k] .. row_lo[k] + height[k] - 1``; its cells are
    ``flat[base[k] : base[k + 1]]`` of a flat buffer, row-major.
    """

    col_lo: np.ndarray
    row_lo: np.ndarray
    width: np.ndarray
    height: np.ndarray
    base: np.ndarray

    @staticmethod
    def of(boxes: np.ndarray, grid: "RasterGrid", max_cells: int) -> "CellWindows":
        """The windows of ``grid.cell_range_of_box(box)`` for every row
        ``(xmin, ymin, xmax, ymax)`` of ``boxes``, vectorised.

        Raises :class:`RasterizationError` naming the first geometry
        whose window exceeds ``max_cells``, before anything is built.
        """
        space = grid.dataspace
        last = grid.side - 1
        cols = np.clip(np.floor((boxes[:, 0::2] - space.xmin) / grid.cell_width), 0, last)
        rows = np.clip(np.floor((boxes[:, 1::2] - space.ymin) / grid.cell_height), 0, last)
        cols = cols.astype(np.int64)
        rows = rows.astype(np.int64)
        width = cols[:, 1] - cols[:, 0] + 1
        height = rows[:, 1] - rows[:, 0] + 1
        cells = width * height
        too_big = np.flatnonzero(cells > max_cells)
        if too_big.size:
            k = int(too_big[0])
            raise RasterizationError(
                f"polygon {k} MBR spans {width[k]}x{height[k]} cells (> {max_cells}); "
                "use a coarser grid order"
            )
        base = np.concatenate(([0], np.cumsum(cells)))
        return CellWindows(cols[:, 0], rows[:, 0], width, height, base)

    def __len__(self) -> int:
        return int(self.width.size)

    @property
    def total(self) -> int:
        return int(self.base[-1])

    def __getitem__(self, part: slice) -> "CellWindows":
        """Windows ``part`` (a step-1 slice), rebased to start at cell 0."""
        base = self.base[part.start : part.stop + 1]
        return CellWindows(
            self.col_lo[part], self.row_lo[part], self.width[part],
            self.height[part], base - base[0],
        )

    def cells(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(window, col, row)`` of the sorted flat buffer indices ``flat``."""
        window = np.searchsorted(self.base, flat, side="right") - 1
        row, col = np.divmod(flat - self.base[window], self.width[window])
        return window, col + self.col_lo[window], row + self.row_lo[window]


def rasterize_batch(
    columns: GeometryColumns, grid: "RasterGrid", windows: CellWindows
) -> tuple[np.ndarray, np.ndarray]:
    """Classify every cell of ``windows`` (one per geometry of ``columns``).

    Returns two flat boolean buffers over the windows, ``(marked,
    full)``: the partial cells and the full cells (see module docstring).
    """
    ax, ay, bx, by, offsets = columns.edge_arrays()
    edge_window = np.repeat(np.arange(len(windows)), np.diff(offsets))
    space = grid.dataspace
    ua = (ax - space.xmin) / grid.cell_width
    va = (ay - space.ymin) / grid.cell_height
    ub = (bx - space.xmin) / grid.cell_width
    vb = (by - space.ymin) / grid.cell_height

    marked = np.zeros(windows.total, dtype=bool)
    _mark_edges(marked, windows, edge_window, ua, va, ub, vb)
    full = _parity_fill(windows, edge_window, ua, va, ub, vb)
    full &= ~marked
    return marked, full


def rasterize_polygon(
    polygon: "Polygon",
    grid: "RasterGrid",
    max_cells: int = 64_000_000,
) -> RasterCells:
    """Classify the cells under ``polygon``'s MBR: the one-geometry view
    of :func:`rasterize_batch`."""
    columns = GeometryColumns.from_geometries([polygon])
    windows = CellWindows.of(columns.boxes, grid, max_cells)
    marked, full = rasterize_batch(columns, grid, windows)

    def cells(mask: np.ndarray) -> np.ndarray:
        _, col, row = windows.cells(np.flatnonzero(mask))
        return np.column_stack((col, row)).astype(np.int64)

    return RasterCells(partial=cells(marked), full=cells(full))


# ----------------------------------------------------------------------
# boundary marking
# ----------------------------------------------------------------------
def _mark_edges(
    marked: np.ndarray,
    windows: CellWindows,
    edge_window: np.ndarray,
    ua: np.ndarray,
    va: np.ndarray,
    ub: np.ndarray,
    vb: np.ndarray,
) -> None:
    """Mark all boundary-touched cells of all edges in one numpy pass."""
    du = ub - ua
    dv = vb - va
    n = ua.size

    ex_idx, tx = _axis_crossings(ua, ub, du)
    ey_idx, ty = _axis_crossings(va, vb, dv)

    # Per edge: endpoints (t = 0, 1) plus every grid-line crossing.
    edge_ids = np.concatenate((np.arange(n), np.arange(n), ex_idx, ey_idx))
    ts = np.concatenate((np.zeros(n), np.ones(n), tx, ty))
    keep = (ts >= 0.0) & (ts <= 1.0)
    edge_ids = edge_ids[keep]
    ts = ts[keep]

    # Span ordering within each edge: lexsort by (edge, t).
    order = np.lexsort((ts, edge_ids))
    edge_ids = edge_ids[order]
    ts = ts[order]

    # Crossing / endpoint points (handles corner touches)...
    pu = ua[edge_ids] + ts * du[edge_ids]
    pv = va[edge_ids] + ts * dv[edge_ids]
    # ...and span midpoints (interior of the traversal; edges running
    # exactly along a grid line).
    span = (edge_ids[1:] == edge_ids[:-1]) & (ts[1:] > ts[:-1])
    tm = (ts[:-1][span] + ts[1:][span]) / 2.0
    mids = edge_ids[:-1][span]
    mu = ua[mids] + tm * du[mids]
    mv = va[mids] + tm * dv[mids]

    _mark_points(
        marked,
        windows,
        edge_window[np.concatenate((edge_ids, mids))],
        np.concatenate((pu, mu)),
        np.concatenate((pv, mv)),
    )


def _axis_crossings(
    start: np.ndarray, stop: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edge indices and ``t`` parameters of all integer-line crossings.

    For each edge with nonzero ``delta``, the crossed grid lines are the
    integers in ``[ceil(min), floor(max)]``; one floor/ceil pass over
    the concatenated edge arrays yields them all, expanded via the
    repeat/arange trick.
    """
    g_lo = np.ceil(np.minimum(start, stop))
    g_hi = np.floor(np.maximum(start, stop))
    counts = (g_hi - g_lo + 1.0).astype(np.int64)
    counts = np.where((delta != 0.0) & (counts > 0), counts, 0)
    edge_idx, g = _expand(counts, g_lo)
    t = (g - start[edge_idx]) / delta[edge_idx]
    return edge_idx, t


def _expand(counts: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, first[k] + j)`` for every ``k`` and ``j < counts[k]``."""
    idx = np.repeat(np.arange(counts.size), counts)
    ends = np.cumsum(counts)
    step = np.arange(idx.size) - np.repeat(ends - counts, counts)
    return idx, first[idx] + step


def _mark_points(
    marked: np.ndarray,
    windows: CellWindows,
    window: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> None:
    """Scatter-mark the cells touched by points in cell units, each
    clipped to its own geometry's ``window``.

    A point on a vertical grid line marks both horizontal neighbours, on
    a horizontal line both vertical neighbours, and all four cells at an
    exact grid corner — same closed-extent semantics as the scalar
    ``mark_point``.
    """
    cu = np.floor(u)
    cv = np.floor(v)
    on_u = u == cu
    on_v = v == cv
    col = cu.astype(np.int64) - windows.col_lo[window]
    row = cv.astype(np.int64) - windows.row_lo[window]
    both = on_u & on_v
    cols = np.concatenate((col, col[on_u] - 1, col[on_v], col[both] - 1))
    rows = np.concatenate((row, row[on_u], row[on_v] - 1, row[both] - 1))
    window = np.concatenate((window, window[on_u], window[on_v], window[both]))
    width = windows.width[window]
    ok = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < windows.height[window])
    marked[windows.base[window[ok]] + rows[ok] * width[ok] + cols[ok]] = True


# ----------------------------------------------------------------------
# interior classification
# ----------------------------------------------------------------------
def _parity_fill(
    windows: CellWindows,
    edge_window: np.ndarray,
    ua: np.ndarray,
    va: np.ndarray,
    ub: np.ndarray,
    vb: np.ndarray,
) -> np.ndarray:
    """Even-odd status of every window cell's centre, scanline by scanline.

    An edge crosses the centre line ``v = r + 0.5`` of row ``r`` iff
    exactly one endpoint lies strictly above it — the half-open rule of
    the even-odd test, so every closed ring crosses each line an even
    number of times and vertices on the line count once. A crossing at
    ``u`` toggles the cells whose centre ``c + 0.5`` exceeds ``u``: the
    first is ``floor(u + 0.5)``, clipped into the window; a second toggle
    at the next row's first cell cancels it there, so one cumulative
    parity over the whole flat buffer restarts at every row.
    """
    row_lo = windows.row_lo[edge_window]
    lo = np.minimum(va, vb)
    hi = np.maximum(va, vb)
    first = np.floor(lo)
    first += first + 0.5 < lo
    last = np.floor(hi)
    last -= last + 0.5 >= hi
    first = np.maximum(first, row_lo)
    last = np.minimum(last, row_lo + windows.height[edge_window] - 1)
    counts = np.maximum(last - first + 1.0, 0.0).astype(np.int64)
    edge, row = _expand(counts, first.astype(np.int64))

    centre = row + 0.5
    u = ua[edge] + (centre - va[edge]) / (vb[edge] - va[edge]) * (ub[edge] - ua[edge])
    window = edge_window[edge]
    width = windows.width[window]
    col = np.clip(np.floor(u + 0.5).astype(np.int64) - windows.col_lo[window], 0, width)
    row_start = windows.base[window] + (row - windows.row_lo[window]) * width
    toggles = np.bincount(
        np.concatenate((row_start + col, row_start + width)),
        minlength=windows.total + 1,
    )
    return np.logical_xor.accumulate((toggles & 1).astype(bool))[:-1]


__all__ = [
    "CellWindows",
    "RasterCells",
    "RasterizationError",
    "rasterize_batch",
    "rasterize_polygon",
]

"""Conservative polygon rasterisation.

Splits the grid cells under a polygon's MBR into three classes:

- **partial** — cells whose closed extent is touched by the polygon
  *boundary* (marked conservatively: a cell is never missed, it may at
  worst be over-marked, which only moves a would-be-full cell into the
  conservative class);
- **full** — untouched cells whose extent lies entirely in the polygon
  interior;
- empty — untouched cells entirely outside.

The correctness of classifying untouched cells by a single point rests
on the *uniform-run lemma*: two edge-adjacent untouched cells cannot
differ in status, because the boundary would have to cross their shared
(closed) edge and would then touch — and mark — both cells. Boundary
marking therefore visits every edge's grid-line crossings in cell
units, marking the cell of each inter-crossing span midpoint; points
that land exactly on a grid line mark both sides (and all four cells at
a grid corner), which handles edges running along grid lines and exact
corner crossings.

All crossings of all edges are computed in one bulk numpy pass (a
single floor/ceil sweep over concatenated edge arrays, a lexsort for
per-edge span ordering, and scatter-marking via flat indices). The
original per-edge Python walk is its oracle
(``tests/oracles/rasterize.py``): both evaluate the same IEEE
expressions, so the differential suite demands bit-identical grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.topology.pip import points_strictly_inside

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


def rasterize_polygon(
    polygon: "Polygon",
    grid: "RasterGrid",
    max_cells: int = 64_000_000,
) -> RasterCells:
    """Classify the cells under ``polygon``'s MBR (see module docstring)."""
    col_lo, row_lo, col_hi, row_hi = grid.cell_range_of_box(polygon.bbox)
    width = col_hi - col_lo + 1
    height = row_hi - row_lo + 1
    if width * height > max_cells:
        raise RasterizationError(
            f"polygon MBR spans {width}x{height} cells (> {max_cells}); "
            "use a coarser grid order"
        )

    marked = np.zeros((height, width), dtype=bool)
    _mark_edges_bulk(marked, grid, polygon, col_lo, row_lo)

    full = np.zeros((height, width), dtype=bool)
    _classify_unmarked_runs(full, marked, polygon, grid, col_lo, row_lo)

    prows, pcols = np.nonzero(marked)
    frows, fcols = np.nonzero(full)
    partial_cells = np.column_stack((pcols + col_lo, prows + row_lo)).astype(np.int64)
    full_cells = np.column_stack((fcols + col_lo, frows + row_lo)).astype(np.int64)
    return RasterCells(partial=partial_cells, full=full_cells)


# ----------------------------------------------------------------------
# bulk boundary marking
# ----------------------------------------------------------------------
def _mark_edges_bulk(
    marked: np.ndarray,
    grid: "RasterGrid",
    polygon: "Polygon",
    col_lo: int,
    row_lo: int,
) -> None:
    """Mark all boundary-touched cells of all edges in one numpy pass."""
    edges = list(polygon.edges())
    if not edges:
        return
    coords = np.asarray(edges, dtype=np.float64)  # (E, 2, 2)
    space = grid.dataspace
    ua = (coords[:, 0, 0] - space.xmin) / grid.cell_width
    va = (coords[:, 0, 1] - space.ymin) / grid.cell_height
    ub = (coords[:, 1, 0] - space.xmin) / grid.cell_width
    vb = (coords[:, 1, 1] - space.ymin) / grid.cell_height
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

    _mark_points_bulk(
        marked,
        np.concatenate((pu, mu)),
        np.concatenate((pv, mv)),
        col_lo,
        row_lo,
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
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    edge_idx = np.repeat(np.arange(counts.size), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    g = np.arange(total) - np.repeat(offsets[:-1], counts) + np.repeat(g_lo, counts)
    t = (g - start[edge_idx]) / delta[edge_idx]
    return edge_idx, t


def _mark_points_bulk(
    marked: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    col_lo: int,
    row_lo: int,
) -> None:
    """Scatter-mark the cells touched by points in cell units.

    A point on a vertical grid line marks both horizontal neighbours, on
    a horizontal line both vertical neighbours, and all four cells at an
    exact grid corner — same closed-extent semantics as the scalar
    ``mark_point``.
    """
    height, width = marked.shape
    cu = np.floor(u)
    cv = np.floor(v)
    on_u = u == cu
    on_v = v == cv
    col = cu.astype(np.int64) - col_lo
    row = cv.astype(np.int64) - row_lo
    both = on_u & on_v
    cols = np.concatenate((col, col[on_u] - 1, col[on_v], col[both] - 1))
    rows = np.concatenate((row, row[on_u], row[on_v] - 1, row[both] - 1))
    ok = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    marked.ravel()[rows[ok] * width + cols[ok]] = True


# ----------------------------------------------------------------------
# interior classification
# ----------------------------------------------------------------------
def _classify_unmarked_runs(
    full: np.ndarray,
    marked: np.ndarray,
    polygon: "Polygon",
    grid: "RasterGrid",
    col_lo: int,
    row_lo: int,
) -> None:
    """Classify maximal unmarked runs per row by one interior test each.

    Run extraction is a vectorised row-wise diff over the marked grid;
    only the (few) runs and their representative points touch Python.
    """
    height, width = marked.shape
    unmarked = (~marked).astype(np.int8)
    pad = np.zeros((height, 1), dtype=np.int8)
    delta = np.diff(unmarked, axis=1, prepend=pad, append=pad)
    run_rows, run_starts = np.nonzero(delta == 1)
    run_ends = np.nonzero(delta == -1)[1]  # row-major: aligned with starts
    if run_rows.size == 0:
        return
    px = grid.dataspace.xmin + (run_starts + col_lo + 0.5) * grid.cell_width
    py = grid.dataspace.ymin + (run_rows + row_lo + 0.5) * grid.cell_height
    inside = points_strictly_inside(list(zip(px.tolist(), py.tolist())), polygon)
    for k in np.nonzero(np.asarray(inside))[0]:
        full[run_rows[k], run_starts[k] : run_ends[k]] = True


__all__ = ["RasterCells", "RasterizationError", "rasterize_polygon"]

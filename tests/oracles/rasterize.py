"""The original per-edge / per-cell rasteriser walks.

Oracles for the batched boundary marking and scanline parity fill of
:mod:`repro.raster.rasterize`. The marking walk evaluates the same IEEE
expressions as the product code, and one point-in-polygon test per
unmarked run classifies what the parity fill classifies cell by cell,
so grids must be bit-identical. :func:`rasterize_polygon` composes the
two walks for one polygon; :func:`build_april` goes on to the P and C
lists through the oracle Hilbert loop and the oracle coalesce, so an
approximation can be derived without touching any product kernel — the
reference for ``build_april_many`` whatever batch a polygon lands in.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.columns import GeometryColumns
from repro.raster.april import AprilApproximation
from repro.raster.intervals import IntervalList
from repro.raster.rasterize import RasterCells

from tests.oracles import hilbert, intervals
from tests.oracles.parity import slab_parity


def mark_edge(
    marked: np.ndarray,
    grid,
    a: tuple[float, float],
    b: tuple[float, float],
    col_lo: int,
    row_lo: int,
) -> None:
    """Mark every cell whose closed extent the segment ``a-b`` touches."""
    ua, va = grid.to_cell_units(a[0], a[1])
    ub, vb = grid.to_cell_units(b[0], b[1])
    du = ub - ua
    dv = vb - va

    ts = [0.0, 1.0]
    if du != 0.0:
        lo, hi = (ua, ub) if ua <= ub else (ub, ua)
        for gx in range(math.ceil(lo), math.floor(hi) + 1):
            ts.append((gx - ua) / du)
    if dv != 0.0:
        lo, hi = (va, vb) if va <= vb else (vb, va)
        for gy in range(math.ceil(lo), math.floor(hi) + 1):
            ts.append((gy - va) / dv)
    ts = sorted(t for t in ts if 0.0 <= t <= 1.0)

    height, width = marked.shape

    def mark_point(u: float, v: float) -> None:
        cu = math.floor(u)
        cv = math.floor(v)
        cols = (cu - 1, cu) if u == cu else (cu,)
        rows = (cv - 1, cv) if v == cv else (cv,)
        for c in cols:
            lc = c - col_lo
            if not 0 <= lc < width:
                continue
            for r in rows:
                lr = r - row_lo
                if 0 <= lr < height:
                    marked[lr, lc] = True

    # Endpoints and exact crossings (handles corner touches).
    for t in ts:
        mark_point(ua + t * du, va + t * dv)
    # Span midpoints (handles the interior of the traversal and edges
    # running exactly along a grid line).
    for t0, t1 in zip(ts, ts[1:]):
        if t1 > t0:
            tm = (t0 + t1) / 2.0
            mark_point(ua + tm * du, va + tm * dv)


def classify_unmarked_runs(
    full: np.ndarray,
    marked: np.ndarray,
    polygon,
    grid,
    col_lo: int,
    row_lo: int,
) -> None:
    """Classify maximal unmarked runs per row by one interior test each."""
    height, width = marked.shape
    run_rows: list[int] = []
    run_starts: list[int] = []
    run_ends: list[int] = []
    rep_points: list[tuple[float, float]] = []

    for lr in range(height):
        row_marked = marked[lr]
        lc = 0
        while lc < width:
            if row_marked[lc]:
                lc += 1
                continue
            start = lc
            while lc < width and not row_marked[lc]:
                lc += 1
            run_rows.append(lr)
            run_starts.append(start)
            run_ends.append(lc)
            rep_points.append(grid.cell_center(start + col_lo, lr + row_lo))

    if not rep_points:
        return
    px, py = np.asarray(rep_points, dtype=np.float64).T
    columns = GeometryColumns.from_geometries([polygon])
    inside = slab_parity(columns, np.zeros(len(px), dtype=np.int64), px, py)
    for k in range(len(rep_points)):
        if inside[k]:
            full[run_rows[k], run_starts[k] : run_ends[k]] = True


def rasterize_polygon(polygon, grid) -> RasterCells:
    """``repro.raster.rasterize_polygon`` through the two scalar walks."""
    col_lo, row_lo, col_hi, row_hi = grid.cell_range_of_box(polygon.bbox)
    width = col_hi - col_lo + 1
    height = row_hi - row_lo + 1

    marked = np.zeros((height, width), dtype=bool)
    for a, b in polygon.edges():
        mark_edge(marked, grid, a, b, col_lo, row_lo)
    full = np.zeros((height, width), dtype=bool)
    classify_unmarked_runs(full, marked, polygon, grid, col_lo, row_lo)

    prows, pcols = np.nonzero(marked)
    frows, fcols = np.nonzero(full)
    partial_cells = np.column_stack((pcols + col_lo, prows + row_lo)).astype(np.int64)
    full_cells = np.column_stack((fcols + col_lo, frows + row_lo)).astype(np.int64)
    return RasterCells(partial=partial_cells, full=full_cells)


def build_april(polygon, grid) -> AprilApproximation:
    """``repro.raster.build_april`` from oracle parts only: scalar
    rasteriser, bit-at-a-time Hilbert ids, one ``[id, id + 1)`` interval
    per cell merged by the scalar coalesce."""
    cells = rasterize_polygon(polygon, grid)

    def ids(cell_array: np.ndarray) -> np.ndarray:
        return hilbert.hilbert_xy2d_bulk(
            grid.order, cell_array[:, 0].copy(), cell_array[:, 1].copy()
        )

    def as_list(cell_ids: np.ndarray) -> IntervalList:
        return IntervalList._from_arrays(*intervals.coalesce(cell_ids, cell_ids + 1))

    full_ids = ids(cells.full)
    return AprilApproximation(
        grid=grid,
        p=as_list(full_ids),
        c=as_list(np.concatenate((full_ids, ids(cells.partial)))),
    )

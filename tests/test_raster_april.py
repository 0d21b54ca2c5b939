"""Tests for the grid, the rasteriser and APRIL invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.pair_bits import PairBits
from repro.geometry import Box, Location, Polygon
from repro.geometry.predicates import locate_point_in_polygon
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.parallel import build_april_parallel
from repro.raster import (
    RasterGrid,
    RasterizationError,
    april,
    build_april,
    build_april_many,
    rasterize_polygon,
)
from repro.raster.april import AprilColumns
from repro.resilience import failpoints
from repro.store import SpatialDataset

GRID = RasterGrid(Box(0, 0, 16, 16), order=4)  # 16x16 unit cells


def regular(n, cx, cy, radius):
    return Polygon(
        [
            (cx + radius * math.cos(2 * math.pi * i / n), cy + radius * math.sin(2 * math.pi * i / n))
            for i in range(n)
        ]
    )


class TestGrid:
    def test_shape(self):
        assert GRID.side == 16
        assert GRID.num_cells == 256
        assert GRID.cell_width == 1.0 and GRID.cell_height == 1.0

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            RasterGrid(Box(0, 0, 1, 1), order=0)
        with pytest.raises(ValueError):
            RasterGrid(Box(0, 0, 1, 1), order=17)

    def test_degenerate_dataspace(self):
        with pytest.raises(ValueError):
            RasterGrid(Box(0, 0, 0, 1), order=4)

    def test_cell_of_point(self):
        assert GRID.cell_of_point(0.5, 0.5) == (0, 0)
        assert GRID.cell_of_point(15.9, 0.1) == (15, 0)
        # Clamping outside the dataspace.
        assert GRID.cell_of_point(-5, 20) == (0, 15)

    def test_cell_box_roundtrip(self):
        b = GRID.cell_box(3, 7)
        assert b == Box(3, 7, 4, 8)
        assert GRID.cell_of_point(*GRID.cell_center(3, 7)) == (3, 7)

    def test_cell_range_of_box(self):
        assert GRID.cell_range_of_box(Box(1.5, 2.5, 3.5, 3.5)) == (1, 2, 3, 3)

    def test_cell_range_clamped(self):
        assert GRID.cell_range_of_box(Box(-10, -10, 100, 100)) == (0, 0, 15, 15)

    def test_nonsquare_dataspace(self):
        g = RasterGrid(Box(0, 0, 32, 8), order=3)
        assert g.cell_width == 4.0 and g.cell_height == 1.0

    def test_compatibility(self):
        g1 = RasterGrid(Box(0, 0, 16, 16), order=4)
        g2 = RasterGrid(Box(0, 0, 16, 16), order=5)
        assert GRID.compatible_with(g1)
        assert not GRID.compatible_with(g2)


class TestRasterize:
    def test_aligned_square(self):
        cells = rasterize_polygon(Polygon.box(2, 2, 6, 6), GRID)
        full = {tuple(map(int, c)) for c in cells.full}
        partial = {tuple(map(int, c)) for c in cells.partial}
        assert full == {(c, r) for c in range(3, 5) for r in range(3, 5)}
        # Boundary runs along grid lines: both sides are marked, clipped
        # to the object's own MBR cell range (cols/rows 2..6).
        assert (2, 3) in partial and (6, 3) in partial
        assert (5, 3) in partial  # inner side of the x=6 boundary line
        assert (2, 2) in partial and (5, 5) in partial
        assert (1, 3) not in partial  # outside the MBR cell range

    def test_unaligned_square(self):
        cells = rasterize_polygon(Polygon.box(2.5, 2.5, 5.5, 5.5), GRID)
        full = {tuple(c) for c in cells.full}
        partial = {tuple(c) for c in cells.partial}
        assert full == {(c, r) for c in range(3, 5) for r in range(3, 5)}
        assert partial == {
            (c, r) for c in range(2, 6) for r in range(2, 6) if not (3 <= c <= 4 and 3 <= r <= 4)
        }

    def test_thin_sliver_no_full_cells(self):
        cells = rasterize_polygon(Polygon([(0.1, 0.1), (9.9, 0.2), (9.9, 0.3)]), GRID)
        assert cells.full.size == 0
        assert cells.partial.size > 0

    def test_too_many_cells_raises(self):
        grid = RasterGrid(Box(0, 0, 16, 16), order=10)
        with pytest.raises(RasterizationError):
            rasterize_polygon(Polygon.box(0, 0, 16, 16), grid, max_cells=100)

    def test_oversized_window_names_its_geometry_and_writes_no_payload(self, tmp_path):
        geometries = [Polygon.box(k, k, k + 0.5, k + 0.5) for k in range(3)]
        geometries.insert(2, Polygon.box(0, 0, 1000, 1000))
        with pytest.raises(RasterizationError, match="polygon 2 "):
            build_april_many(geometries, RasterGrid(Box(0, 0, 1000, 1000), order=10),
                             max_cells=100_000)
        # At order 16 the big box spans 65536^2 cells, over the default
        # cap; the store must surface that before writing anything.
        dataset = SpatialDataset.from_polygons(geometries).save(tmp_path / "idx")
        grid = dataset.grid(16)
        with pytest.raises(RasterizationError, match="polygon 2 "):
            dataset.approximations(grid)
        assert not dataset.approximation_path(grid).exists()

    def test_hole_cells_not_full(self):
        donut = Polygon(
            [(1, 1), (9, 1), (9, 9), (1, 9)], [[(3, 3), (7, 3), (7, 7), (3, 7)]]
        )
        cells = rasterize_polygon(donut, GRID)
        full = {tuple(c) for c in cells.full}
        partial = {tuple(c) for c in cells.partial}
        # Hole interior cells are neither full nor partial.
        for c in range(4, 6):
            for r in range(4, 6):
                assert (c, r) not in full and (c, r) not in partial
        # Band cells are full.
        assert (1, 1) in full or (1, 1) in partial


class TestAprilInvariants:
    POLYGONS = [
        Polygon.box(2, 2, 6, 6),
        Polygon.box(2.5, 2.5, 5.5, 5.5),
        regular(7, 8, 8, 5.0),
        regular(23, 6, 9, 4.3),
        Polygon([(1, 1), (14, 2), (13, 13), (3, 12)], [[(5, 5), (9, 5), (9, 9), (5, 9)]]),
        Polygon([(0.1, 0.1), (15.9, 0.2), (8.0, 15.8)]),
    ]

    @pytest.mark.parametrize("poly", POLYGONS)
    def test_p_subset_of_c(self, poly):
        ap = build_april(poly, GRID)
        assert ap.p.inside(ap.c)
        assert ap.c.contains(ap.p)

    @pytest.mark.parametrize("poly", POLYGONS)
    def test_p_cells_strictly_interior(self, poly):
        """Every corner of every P cell is strictly inside the polygon."""
        ap = build_april(poly, GRID)
        for cid in ap.p.iter_cells():
            col, row = GRID.cell_of_hilbert_id(cid)
            for corner in GRID.cell_box(col, row).corners():
                assert locate_point_in_polygon(corner, poly) is Location.INTERIOR

    @pytest.mark.parametrize("poly", POLYGONS)
    def test_c_covers_object(self, poly):
        """Dense samples of the polygon always land in a C cell."""
        ap = build_april(poly, GRID)
        bbox = poly.bbox
        for i in range(25):
            for j in range(25):
                x = bbox.xmin + (i + 0.5) / 25 * bbox.width
                y = bbox.ymin + (j + 0.5) / 25 * bbox.height
                if locate_point_in_polygon((x, y), poly) is Location.EXTERIOR:
                    continue
                col, row = GRID.cell_of_point(x, y)
                assert ap.c.covers_cell(GRID.hilbert_id(col, row))

    @pytest.mark.parametrize("poly", POLYGONS)
    def test_non_c_cells_disjoint_from_object(self, poly):
        """Cell centres outside C are strictly outside the polygon."""
        ap = build_april(poly, GRID)
        lo_c, lo_r, hi_c, hi_r = GRID.cell_range_of_box(poly.bbox)
        for col in range(lo_c, hi_c + 1):
            for row in range(lo_r, hi_r + 1):
                if ap.c.covers_cell(GRID.hilbert_id(col, row)):
                    continue
                center = GRID.cell_center(col, row)
                assert locate_point_in_polygon(center, poly) is Location.EXTERIOR

    @pytest.mark.parametrize(
        "build", ["serial", "one-by-one", "tiny-batches", "workers=2", "workers=2 rebuilt"]
    )
    def test_built_counter_counts_each_object_once(self, build, monkeypatch):
        polygons = self.POLYGONS * 2
        if build == "tiny-batches":
            monkeypatch.setattr(april, "_BATCH_CELLS", 1)
        set_metrics(True)
        reset_metrics()
        try:
            if build == "one-by-one":
                built = [build_april(p, GRID) for p in polygons]
            elif build == "workers=2":
                built = build_april_parallel(polygons, GRID, workers=2)
            elif build == "workers=2 rebuilt":
                # Every chunk dies in its worker and is rebuilt in-parent.
                with failpoints.inject({"worker.crash": "always"}):
                    built = build_april_parallel(
                        polygons, GRID, workers=2, partition_timeout=30.0, max_retries=0
                    )
            else:
                built = build_april_many(polygons, GRID)
            counted = get_registry().counter_values().get("repro_april_built_total", 0)
        finally:
            set_metrics(False)
            reset_metrics()
        assert counted == len(polygons)
        assert [(a.p, a.c) for a in built] == [
            (a.p, a.c) for a in build_april_many(polygons, GRID)
        ]

    def test_thin_polygon_empty_p(self):
        ap = build_april(Polygon([(0.1, 0.1), (9.9, 0.2), (9.9, 0.3)]), GRID)
        assert not ap.p
        assert ap.p.cell_count == 0

    def test_grid_compatibility_check(self):
        other = RasterGrid(Box(0, 0, 16, 16), order=5)
        a = build_april(Polygon.box(1, 1, 3, 3), GRID)
        b = build_april(Polygon.box(1, 1, 3, 3), other)
        bits = PairBits(AprilColumns.of([a]), AprilColumns.of([b]), np.zeros(1, int), np.zeros(1, int))
        with pytest.raises(ValueError, match="different grids"):
            bits.bit("overlap_rC_sC", np.arange(1))

    @given(
        st.integers(3, 12),
        st.floats(3, 13),
        st.floats(3, 13),
        st.floats(0.5, 2.8),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_regular_polygon_invariants(self, n, cx, cy, radius):
        poly = regular(n, cx, cy, radius)
        ap = build_april(poly, GRID)
        assert ap.p.inside(ap.c)
        # The C area must be at least the polygon area.
        c_area = ap.c.cell_count * GRID.cell_width * GRID.cell_height
        assert c_area >= poly.area - 1e-9
        # The P area can never exceed the polygon area.
        p_area = ap.p.cell_count * GRID.cell_width * GRID.cell_height
        assert p_area <= poly.area + 1e-9

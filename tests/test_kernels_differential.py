"""Differential suite: vectorised kernels vs the scalar oracles.

The intermediate filter *proves* topological relations from the interval
primitives, so a wrong kernel silently corrupts join answers. This suite
pits every vectorised kernel against its predecessor loop
(``tests/oracles``) on ~10k generated interval-list pairs biased toward
the nasty cases — adjacent intervals, single-cell intervals, empty
lists, identical lists, containment chains — plus exact-equality checks
for the bulk rasteriser, the batched APRIL builder (whatever the batch)
and the Hilbert lookup-table fast path, and one end-to-end join-shaped
differential: oracle-built APRILs and oracle-decided filter verdicts
(the per-pair Fig. 5 flows of ``tests/oracles/find_filters.py`` over
the scalar interval loops) against the product's trees on a synthetic
scenario, with the stream API ``Pipeline.filter_pairs`` pinned to the
per-pair ``filter_pair``.
"""

import math

import numpy as np
import pytest

from repro.datasets.synthetic import generate_blobs, generate_tessellation
from repro.filters.mbr import classify_mbr_pair
from repro.geometry import Box, MultiPolygon, Polygon
from repro.geometry.columns import GeometryColumns
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import SpatialObject
from repro.join.pipeline import PIPELINES
from repro.raster import (
    RasterGrid,
    april,
    build_april,
    build_april_many,
    kernels,
    pad_dataspace,
    rasterize_polygon,
)
from repro.raster.hilbert import hilbert_xy2d, hilbert_xy2d_bulk
from repro.raster.intervals import EMPTY_INTERVALS, IntervalList
from repro.raster.rasterize import CellWindows

from tests.oracles import hilbert as oracle_hilbert
from tests.oracles.find_filters import intermediate_filter
from tests.oracles import intervals as oracle_intervals
from tests.oracles import rasterize as oracle_rasterize

N_PAIRS = 10_000
#: Set operations build whole lists per op; a subset keeps the suite fast.
N_SET_OP_PAIRS = 2_500


# ----------------------------------------------------------------------
# generators (biased toward the nasty cases)
# ----------------------------------------------------------------------
def random_list(rng: np.random.Generator) -> IntervalList:
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return EMPTY_INTERVALS
    if kind == 1:  # one single-cell interval
        c = int(rng.integers(0, 100))
        return IntervalList([(c, c + 1)])
    if kind == 2:  # adjacency-heavy: dense cells with pinhole gaps
        cells = np.arange(0, 64)
        holes = rng.integers(0, 64, size=rng.integers(1, 6))
        return IntervalList.from_cells(np.setdiff1d(cells, holes))
    if kind == 3:  # sparse singletons
        return IntervalList.from_cells(rng.integers(0, 400, size=rng.integers(0, 20)))
    if kind == 4:  # medium density
        return IntervalList.from_cells(rng.integers(0, 120, size=rng.integers(0, 60)))
    # long intervals with varied gaps
    starts = np.cumsum(rng.integers(1, 12, size=rng.integers(1, 16)))
    lengths = rng.integers(1, 8, size=starts.size)
    return IntervalList([(int(s), int(s + l)) for s, l in zip(starts, lengths)])


def random_pair(rng: np.random.Generator) -> tuple[IntervalList, IntervalList]:
    x = random_list(rng)
    kind = int(rng.integers(0, 6))
    if kind == 0:  # identical lists
        return x, IntervalList(list(x))
    if kind == 1:  # containment chain: y ⊇ x
        return x, x.union(random_list(rng))
    if kind == 2:  # x shifted by one cell: adjacency everywhere
        return x, IntervalList([(s + 1, e + 1) for s, e in x] or [(0, 1)])
    if kind == 3:  # x against its own complement-ish difference
        y = random_list(rng)
        return x.difference(y), y
    return x, random_list(rng)


@pytest.fixture(scope="module")
def pair_stream():
    rng = np.random.default_rng(20260806)
    return [random_pair(rng) for _ in range(N_PAIRS)]


# ----------------------------------------------------------------------
# interval relations and set operations
# ----------------------------------------------------------------------
class TestIntervalKernelsDifferential:
    def test_relations_match_reference(self, pair_stream):
        for x, y in pair_stream:
            assert x.overlaps(y) == oracle_intervals.overlaps(x, y)
            assert y.overlaps(x) == oracle_intervals.overlaps(y, x)
            assert x.inside(y) == oracle_intervals.inside(x, y)
            assert y.inside(x) == oracle_intervals.inside(y, x)
            assert x.matches(y) == oracle_intervals.matches(x, y)

    def test_set_ops_match_reference(self, pair_stream):
        for x, y in pair_stream[:N_SET_OP_PAIRS]:
            assert x.intersection(y) == oracle_intervals.intersection(x, y)
            assert x.union(y) == oracle_intervals.union(x, y)
            assert x.difference(y) == oracle_intervals.difference(x, y)

    def test_set_ops_canonical_form(self, pair_stream):
        # Results must satisfy the IntervalList invariant exactly:
        # sorted, disjoint, non-adjacent, no empty intervals.
        for x, y in pair_stream[:N_SET_OP_PAIRS]:
            for il in (x.intersection(y), x.union(y), x.difference(y)):
                items = list(il)
                assert all(s < e for s, e in items)
                assert all(e1 < s2 for (_, e1), (s2, _) in zip(items, items[1:]))

    def test_construction_matches_reference_coalesce(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            n = int(rng.integers(0, 25))
            starts = rng.integers(0, 200, size=n)
            lengths = rng.integers(1, 15, size=n)
            pairs = [(int(s), int(s + l)) for s, l in zip(starts, lengths)]
            fast = IntervalList(pairs)
            raw = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            ref_starts, ref_ends = oracle_intervals.coalesce(raw[:, 0], raw[:, 1])
            assert np.array_equal(fast.starts, ref_starts)
            assert np.array_equal(fast.ends, ref_ends)


# ----------------------------------------------------------------------
# rasterisation (bit-identical grids)
# ----------------------------------------------------------------------
def _blob(n, radius=80.0, cx=500.0, cy=500.0):
    pts = []
    for k in range(n):
        a = 2 * math.pi * k / n
        r = radius * (1 + 0.25 * math.sin(5 * a))
        pts.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return Polygon(pts)


class TestRasterizeDifferential:
    GRID = RasterGrid(Box(0, 0, 1000, 1000), order=8)

    POLYGONS = [
        _blob(7),
        _blob(64),
        Polygon.box(100, 100, 300, 300),
        Polygon.box(0, 0, 1000, 1000),  # hugs the dataspace border
        Polygon([(0, 0), (1000, 0), (500, 1000)]),
        Polygon([(10.5, 10.5), (400.25, 11.0), (11.0, 400.75)]),  # thin sliver
        # Edges running exactly along grid lines and corner touches.
        Polygon([(101.5625, 200.0), (300.0, 200.0), (300.0, 203.125)]),
    ]

    @pytest.mark.parametrize("k", range(len(POLYGONS)))
    def test_bulk_marking_bit_identical(self, k):
        polygon = self.POLYGONS[k]
        fast = rasterize_polygon(polygon, self.GRID)
        ref = oracle_rasterize.rasterize_polygon(polygon, self.GRID)
        assert np.array_equal(fast.partial, ref.partial)
        assert np.array_equal(fast.full, ref.full)

    @staticmethod
    def blobs():
        rng = np.random.default_rng(5)
        return [
            _blob(
                int(rng.integers(3, 40)),
                radius=float(rng.uniform(5, 200)),
                cx=float(rng.uniform(150, 850)),
                cy=float(rng.uniform(150, 850)),
            )
            for _ in range(15)
        ]

    def test_random_blobs_bit_identical(self):
        for polygon in self.blobs():
            fast = rasterize_polygon(polygon, self.GRID)
            ref = oracle_rasterize.rasterize_polygon(polygon, self.GRID)
            assert np.array_equal(fast.partial, ref.partial)
            assert np.array_equal(fast.full, ref.full)


def _assert_oracle_lists(approximations, geometries, grid, refs=None):
    """Each approximation's P and C equal the oracle's, array for array."""
    assert len(approximations) == len(geometries)
    for k, (approx, geometry) in enumerate(zip(approximations, geometries)):
        ref = refs[k] if refs is not None else oracle_rasterize.build_april(geometry, grid)
        for fast_list, ref_list in ((approx.p, ref.p), (approx.c, ref.c)):
            assert np.array_equal(fast_list.starts, ref_list.starts), k
            assert np.array_equal(fast_list.ends, ref_list.ends), k


class TestBatchedBuildDifferential:
    """``build_april_many`` against ``tests/oracles/rasterize.build_april``:
    whatever batch a geometry lands in, its lists are the oracle's."""

    GRID = TestRasterizeDifferential.GRID

    @pytest.fixture(scope="class")
    def dataset(self):
        geometries = TestRasterizeDifferential.POLYGONS + TestRasterizeDifferential.blobs()
        refs = [oracle_rasterize.build_april(g, self.GRID) for g in geometries]
        return geometries, refs

    @pytest.mark.parametrize("budget", [1, 512, april._BATCH_CELLS, 1 << 30])
    def test_one_call_any_budget(self, dataset, budget, monkeypatch):
        monkeypatch.setattr(april, "_BATCH_CELLS", budget)
        geometries, refs = dataset
        _assert_oracle_lists(build_april_many(geometries, self.GRID), geometries, self.GRID, refs)

    def test_shuffled_batches_of_random_sizes(self, dataset):
        geometries, refs = dataset
        rng = np.random.default_rng(25)
        for _ in range(6):
            order = rng.permutation(len(geometries))
            cuts = np.sort(rng.choice(np.arange(1, len(order)), size=4, replace=False))
            for part in np.split(order, cuts):
                _assert_oracle_lists(
                    build_april_many([geometries[k] for k in part], self.GRID),
                    [geometries[k] for k in part],
                    self.GRID,
                    [refs[k] for k in part],
                )

    def test_dataspace_hugging_polygon_then_another_in_one_batch(self, monkeypatch):
        # Without a guard bit between the geometry and the id in the sort
        # key, the last id of the full-grid window coalesces with id 0 of
        # the next window.
        monkeypatch.setattr(april, "_BATCH_CELLS", 1 << 30)
        geometries = [Polygon.box(0, 0, 1000, 1000), Polygon.box(0, 0, 3, 3), _blob(64)]
        approximations = build_april_many(geometries, self.GRID)
        assert approximations[0].c.cell_count == self.GRID.num_cells
        assert list(approximations[0].c) == [(0, self.GRID.num_cells)]
        _assert_oracle_lists(approximations, geometries, self.GRID)

    def test_holes_and_multipolygons(self):
        ring = [(100, 100), (700, 120), (720, 650), (120, 700)]
        geometries = [
            Polygon(ring, [[(200, 200), (400, 200), (400, 400), (200, 400)]]),
            Polygon(ring, [[(200.5, 200.5), (300, 210), (250, 300)],
                           [(500, 500), (600, 500), (600, 600)]]),
            MultiPolygon([_blob(12, 60, 200, 200), _blob(30, 90, 640, 610)]),
            MultiPolygon([Polygon.box(0, 0, 125, 125), Polygon.box(125, 125, 250, 250)]),
        ]
        _assert_oracle_lists(build_april_many(geometries, self.GRID), geometries, self.GRID)

    def test_web_mercator_magnitudes_through_pad_dataspace(self, monkeypatch):
        x0, y0 = 2.0037e7 - 4000.0, 1.9e7
        geometries = [
            Polygon.box(x0, y0, x0 + 4000.0, y0 + 2500.0),  # hugs the extent
            Polygon.box(x0 + 812.5, y0 + 312.5, x0 + 1937.5, y0 + 1250.0),
            Polygon([(x0 + 100.25, y0 + 90.5), (x0 + 3900.0, y0 + 120.0),
                     (x0 + 2000.0, y0 + 2400.75)]),
            _blob(40, 700.0, x0 + 2000.0, y0 + 1250.0),
        ]
        grid = RasterGrid(
            pad_dataspace(Box.union_all([g.bbox for g in geometries])), order=9
        )
        for budget in (1, 1 << 30):
            monkeypatch.setattr(april, "_BATCH_CELLS", budget)
            _assert_oracle_lists(build_april_many(geometries, grid), geometries, grid)

    def test_edge_one_ulp_off_a_grid_line(self):
        # The left edge leans from one ulp left of u = 3 onto it; some of
        # its centre-line crossings round to exactly 3.0. Column 3 must
        # come out as the oracle has it: full where no rounding pushed
        # the boundary into it, partial where one did.
        grid = RasterGrid(Box(0, 0, 16, 16), order=4)
        x = math.nextafter(3.0, 0.0)
        geometries = [Polygon([(x, 0.25), (10.5, 0.25), (10.5, 5.75), (3.0, 5.75)])]
        approximations = build_april_many(geometries, grid)
        assert approximations[0].p.covers_cell(grid.hilbert_id(3, 1))
        _assert_oracle_lists(approximations, geometries, grid)

    def test_window_larger_than_the_budget(self):
        small = [Polygon.box(10 + 7 * k, 10, 14 + 7 * k, 13) for k in range(6)]
        big = _blob(48, radius=300.0)
        geometries = small[:3] + [big] + small[3:]
        boxes = GeometryColumns.from_geometries(geometries).boxes
        cells = CellWindows.of(boxes, self.GRID, 64_000_000)
        sizes = (cells.width * cells.height).tolist()
        assert sizes[3] > april._BATCH_CELLS > sum(sizes) - sizes[3]
        assert april._batches(np.asarray(sizes)) == [slice(0, 3), slice(3, 4), slice(4, 7)]
        _assert_oracle_lists(build_april_many(geometries, self.GRID), geometries, self.GRID)


# ----------------------------------------------------------------------
# Hilbert lookup-table fast path
# ----------------------------------------------------------------------
class TestHilbertDifferential:
    @pytest.mark.parametrize("order", range(1, 7))
    def test_exhaustive_small_orders(self, order):
        side = 1 << order
        ys, xs = np.meshgrid(np.arange(side), np.arange(side))
        xs, ys = xs.ravel(), ys.ravel()
        fast = hilbert_xy2d_bulk(order, xs, ys)
        ref = oracle_hilbert.hilbert_xy2d_bulk(order, xs.copy(), ys.copy())
        scalar = [hilbert_xy2d(order, int(a), int(b)) for a, b in zip(xs, ys)]
        assert np.array_equal(fast, ref)
        assert fast.tolist() == scalar

    # Every order past the exhaustive ones, so every split of the order
    # into a head and six-bit table steps is exercised.
    @pytest.mark.parametrize("order", range(7, 17))
    def test_random_large_orders(self, order):
        rng = np.random.default_rng(order)
        xs = rng.integers(0, 1 << order, size=4000)
        ys = rng.integers(0, 1 << order, size=4000)
        fast = hilbert_xy2d_bulk(order, xs, ys)
        ref = oracle_hilbert.hilbert_xy2d_bulk(order, xs.copy(), ys.copy())
        assert np.array_equal(fast, ref)

    def test_empty_and_validation(self):
        assert hilbert_xy2d_bulk(4, np.empty(0, int), np.empty(0, int)).size == 0
        with pytest.raises(ValueError):
            hilbert_xy2d_bulk(4, np.array([16]), np.array([0]))


# ----------------------------------------------------------------------
# end to end: oracle-built APRILs, oracle-decided verdicts
# ----------------------------------------------------------------------
class TestEndToEndDifferential:
    """What ``REPRO_REFERENCE_KERNELS=1 python -m repro join`` used to
    offer, as a test: a whole (small) join's approximations and filter
    verdicts derived through the scalar oracles equal the product's."""

    @pytest.fixture(scope="class")
    def scenario(self):
        rng = np.random.default_rng(22)
        region = Box(0, 0, 300, 300)
        r_polys = generate_tessellation(rng, region, 3, 3, edge_points=6)
        s_polys = generate_blobs(rng, 60, region, (2, 25), (8, 40))
        grid = RasterGrid(Box(-1, -1, 301, 301), order=7)

        def objects(polygons):
            return [
                SpatialObject(
                    oid=k, polygon=p, box=p.bbox, april=build_april(p, grid)
                )
                for k, p in enumerate(polygons)
            ]

        r_objects, s_objects = objects(r_polys), objects(s_polys)
        pairs = sorted(
            plane_sweep_mbr_join(
                [o.box for o in r_objects], [o.box for o in s_objects]
            )
        )
        return grid, r_objects, s_objects, pairs

    def test_oracle_built_aprils_bit_identical(self, scenario):
        grid, r_objects, s_objects, _ = scenario
        for obj in r_objects + s_objects:
            ref = oracle_rasterize.build_april(obj.polygon, grid)
            for fast_list, ref_list in ((obj.april.p, ref.p), (obj.april.c, ref.c)):
                assert np.array_equal(fast_list.starts, ref_list.starts)
                assert np.array_equal(fast_list.ends, ref_list.ends)

    def test_oracle_verdicts_match_batched_filter(self, scenario, monkeypatch):
        _, r_objects, s_objects, pairs = scenario
        assert len(pairs) > 50
        fast = PIPELINES["P+C"].filter_pairs(r_objects, s_objects, pairs)

        # The kernels.* entry points are the seam: every
        # IntervalList.overlaps/inside/matches of the per-pair filter
        # below runs the scalar merge loop instead.
        calls = []

        def through(oracle):
            def relation(xs, xe, ys, ye):
                calls.append(oracle.__name__)
                return oracle(
                    IntervalList._from_arrays(xs, xe),
                    IntervalList._from_arrays(ys, ye),
                )

            return relation

        for name in ("overlaps", "inside", "matches"):
            monkeypatch.setattr(kernels, name, through(getattr(oracle_intervals, name)))
        for (i, j), (verdict, _) in zip(pairs, fast):
            r, s = r_objects[i], s_objects[j]
            case = classify_mbr_pair(r.box, s.box)
            connected = r.polygon.is_connected and s.polygon.is_connected
            assert verdict == intermediate_filter(case, r.april, s.april, connected), (i, j)
        assert {"overlaps", "inside"} <= set(calls)

    @pytest.mark.parametrize("method", ["APRIL", "P+C"])
    def test_filter_pair_mapped_equals_filter_pairs(self, scenario, method):
        _, r_objects, s_objects, _ = scenario
        # Every pair, not only the MBR join's: the MBR shortcuts decide
        # some, the intermediate filter others, and some stay open.
        pairs = [(i, j) for i in range(len(r_objects)) for j in range(len(s_objects))]
        pipeline = PIPELINES[method]
        batched = pipeline.filter_pairs(r_objects, s_objects, pairs)
        assert batched == [pipeline.filter_pair(r_objects[i], s_objects[j]) for i, j in pairs]
        assert {stage.value for _, stage in batched} == {"mbr", "if"}
        assert {v.definite is None for v, _ in batched} == {True, False}


# ----------------------------------------------------------------------
# the API type boundary
# ----------------------------------------------------------------------
def test_predicates_return_python_bool():
    # numpy scalars must not leak through the IntervalList API.
    x = IntervalList([(2, 5), (9, 10)])
    y = IntervalList([(0, 20)])
    assert isinstance(x.covers_cell(3), bool)
    assert isinstance(x.covers_cell(8), bool)
    assert isinstance(x.overlaps(y), bool)
    assert isinstance(x.inside(y), bool)
    assert isinstance(x.contains(y), bool)
    assert isinstance(x.matches(y), bool)
    assert isinstance(x.overlaps(EMPTY_INTERVALS), bool)
    assert isinstance(EMPTY_INTERVALS.inside(x), bool)

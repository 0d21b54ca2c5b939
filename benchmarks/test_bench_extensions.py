"""Benchmarks for the extension subsystems.

Covers the substrates beyond the paper's core evaluation: the R-tree
access path, topological selection queries, interval compression, and
parallel execution — each with a sanity assertion so a regression in
behaviour fails loudly, not just slowly.
"""

import pytest

from repro.core.selection import TopologySelection
from repro.datasets import load_dataset
from repro.geometry import Box, Polygon
from repro.join.rtree import RTree
from repro.raster.compression import decode_intervals, encode_intervals
from repro.topology.de9im import TopologicalRelation as T


@pytest.fixture(scope="module")
def lake_boxes():
    return [p.bbox for p in load_dataset("OLE", scale=0.5).polygons]


@pytest.fixture(scope="module")
def selection_index():
    polygons = load_dataset("OPE", scale=0.5).polygons
    return TopologySelection(polygons, grid_order=10)


class TestRTreeBench:
    def test_bulk_load(self, benchmark, lake_boxes):
        tree = benchmark(RTree, lake_boxes)
        assert tree.size == len(lake_boxes)

    def test_window_queries(self, benchmark, lake_boxes):
        tree = RTree(lake_boxes)
        windows = [Box(x, y, x + 120, y + 120) for x in (0, 300, 600) for y in (0, 300, 600)]

        def run():
            return sum(len(tree.query(w)) for w in windows)

        total = benchmark(run)
        assert total >= 0


class TestSelectionBench:
    @pytest.mark.parametrize("predicate", [T.INTERSECTS, T.INSIDE], ids=lambda p: p.value)
    def test_selection_query(self, benchmark, selection_index, predicate):
        query = Polygon.box(200, 200, 600, 600)
        result = benchmark(selection_index.select, query, predicate)
        assert isinstance(result, list)


class TestCompressionBench:
    def test_encode(self, benchmark):
        import numpy as np

        rng = np.random.default_rng(4)
        from repro.raster.intervals import IntervalList

        il = IntervalList.from_cells(np.unique(rng.integers(0, 500_000, size=20_000)))
        blob = benchmark(encode_intervals, il)
        assert len(blob) < il.nbytes

    def test_decode(self, benchmark):
        import numpy as np

        rng = np.random.default_rng(4)
        from repro.raster.intervals import IntervalList

        il = IntervalList.from_cells(np.unique(rng.integers(0, 500_000, size=20_000)))
        blob = encode_intervals(il)
        back, _ = benchmark(decode_intervals, blob)
        assert back == il

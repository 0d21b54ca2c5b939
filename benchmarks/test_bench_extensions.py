"""Benchmarks for the extension subsystems.

Covers the substrates beyond the paper's core evaluation: topological
selection queries through ``Engine.select`` and the payload codec —
each with a sanity assertion so a regression in behaviour fails loudly,
not just slowly.
"""

import numpy as np
import pytest

from repro import Engine
from repro.datasets import load_dataset
from repro.geometry import Box, Polygon
from repro.raster import RasterGrid
from repro.raster.april import AprilApproximation
from repro.raster.compression import CompressedAprilPayload
from repro.raster.intervals import IntervalList
from repro.store import SpatialDataset
from repro.topology.de9im import TopologicalRelation as T


@pytest.fixture(scope="module")
def parks():
    return SpatialDataset.from_polygons(load_dataset("OPE", scale=0.5).polygons)


@pytest.fixture(scope="module")
def engine():
    with Engine() as engine:
        yield engine


class TestSelectionBench:
    @pytest.mark.parametrize("predicate", [T.INTERSECTS, T.INSIDE], ids=lambda p: p.value)
    def test_selection_query(self, benchmark, engine, parks, predicate):
        query = Polygon.box(200, 200, 600, 600)
        run = benchmark(engine.select, parks, query, predicate, grid_order=10)
        assert run.kind == "relate" and len(run) <= run.stats.pairs


@pytest.fixture(scope="module")
def payload_objects():
    rng = np.random.default_rng(4)
    grid = RasterGrid(Box(0, 0, 1, 1), order=12)
    lists = [
        IntervalList.from_cells(np.unique(rng.integers(0, 1 << 24, size=200)))
        for _ in range(100)
    ]
    return [AprilApproximation(grid=grid, p=il, c=il) for il in lists]


class TestCompressionBench:
    def test_encode(self, benchmark, payload_objects):
        payload = benchmark(CompressedAprilPayload.from_approximations, payload_objects)
        assert payload.blob.size < sum(a.nbytes for a in payload_objects)

    def test_decode(self, benchmark, payload_objects):
        payload = CompressedAprilPayload.from_approximations(payload_objects)

        def decode():
            fresh = CompressedAprilPayload.from_blob(payload.grid, payload.blob, payload.offsets)
            return fresh.decode_block(range(len(fresh)))

        back = benchmark(decode)
        assert [a.p for a in back] == [a.p for a in payload_objects]

"""Randomized equivalence suite across every join execution path.

Asserts that the plane-sweep MBR join produces the exact brute-force
pair set — including degenerate boxes and edges that meet exactly on
shared coordinates — and that the parallel executor reproduces the
serial relation results for every worker count.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import generate_blobs
from repro.geometry import Box
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import make_objects
from repro.join.pipeline import run_find_relation
from repro.parallel import run_find_relation_parallel
from repro.raster import RasterGrid, pad_dataspace

from tests.oracles.mbr_join import brute_force_mbr_join


def random_boxes(rng: np.random.Generator, n: int) -> list[Box]:
    """Adversarial boxes: integer corners (exact boundary collisions),
    zero-width/height degenerates, and shared edges."""
    boxes = []
    for _ in range(n):
        x0, y0 = rng.integers(0, 16, size=2)
        kind = rng.integers(0, 4)
        if kind == 0:  # a point or a segment
            w, h = rng.integers(0, 2, size=2) * int(rng.integers(0, 5))
        else:
            w, h = rng.integers(1, 6, size=2)
        boxes.append(Box(float(x0), float(y0), float(x0 + w), float(y0 + h)))
    return boxes


class TestPairSetEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_sweep_and_grid_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        r_boxes = random_boxes(rng, 40)
        s_boxes = random_boxes(rng, 40)
        truth = set(brute_force_mbr_join(r_boxes, s_boxes))
        assert set(plane_sweep_mbr_join(r_boxes, s_boxes)) == truth

    def test_edges_exactly_on_tile_boundaries(self):
        # Boxes whose edges sit on the multiples of 2 of a 0..8
        # universe (the tile boundaries of a 4x4 split), pairs meeting
        # only along them, and degenerate boxes on them: the sweep's
        # closed-interval tests must keep every touching pair.
        r_boxes = [
            Box(0.0, 0.0, 2.0, 2.0),
            Box(2.0, 2.0, 4.0, 4.0),
            Box(0.0, 4.0, 8.0, 6.0),
            Box(4.0, 0.0, 6.0, 8.0),
            Box(6.0, 6.0, 6.0, 8.0),  # zero-width on a boundary
        ]
        s_boxes = [
            Box(2.0, 0.0, 4.0, 2.0),   # meets r0 along x=2
            Box(4.0, 4.0, 6.0, 6.0),   # corner-touches r1 at (4, 4)
            Box(0.0, 6.0, 8.0, 8.0),   # meets r2 along y=6
            Box(6.0, 0.0, 8.0, 8.0),
            Box(6.0, 7.0, 6.0, 7.0),   # degenerate point on x=6
        ]
        truth = sorted(brute_force_mbr_join(r_boxes, s_boxes))
        assert (0, 0) in truth and (1, 1) in truth and (2, 2) in truth
        assert sorted(plane_sweep_mbr_join(r_boxes, s_boxes)) == truth

    def test_empty_inputs(self):
        # A side with nothing in it yields no pair, in either order.
        boxes = [Box(1.0, 1.0, 7.0, 7.0)]
        for r_boxes, s_boxes in ((boxes, []), ([], boxes)):
            assert plane_sweep_mbr_join(r_boxes, s_boxes) == []
            assert brute_force_mbr_join(r_boxes, s_boxes) == []


class TestRelationSetEquivalence:
    @pytest.fixture(scope="class")
    def objects(self):
        rng = np.random.default_rng(17)
        region = Box(0, 0, 150, 150)
        r_polys = generate_blobs(rng, 35, region, (3, 25), (8, 40))
        s_polys = generate_blobs(rng, 35, region, (3, 25), (8, 40))
        extent = pad_dataspace(
            Box.union_all([p.bbox for p in r_polys + s_polys])
        )
        grid = RasterGrid(extent, order=9)
        return make_objects(r_polys, grid), make_objects(s_polys, grid)

    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("method", ("ST2", "P+C"))
    def test_parallel_relations_match_serial_brute_force_pairs(
        self, objects, method, workers
    ):
        r_objects, s_objects = objects
        pairs = sorted(
            brute_force_mbr_join(
                [o.box for o in r_objects], [o.box for o in s_objects]
            )
        )
        serial = run_find_relation(method, r_objects, s_objects, pairs)
        run = run_find_relation_parallel(
            method, r_objects, s_objects, pairs, workers=workers
        )
        assert run.stats.relation_counts == serial.relation_counts
        assert [(i, j) for i, j, _, _ in run.results] == pairs

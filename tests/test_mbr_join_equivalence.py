"""Randomized equivalence suite across every join execution path.

Asserts that the plane-sweep MBR join produces the exact brute-force
pair set, that the PBSM tile arithmetic (``TileLayout``) gives every
brute-force pair exactly one owner tile among the tiles both boxes are
replicated to — including degenerate boxes and edges landing exactly on
partition-tile boundaries — that the disk-partitioned join built on it
returns serial's rows, and that the parallel executor reproduces the
serial relation results for every worker count.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import generate_blobs
from repro.geometry import Box, Polygon
from repro.join.diskjoin import DiskPartitionedJoin
from repro.join.mbr_join import (
    TileLayout,
    brute_force_mbr_join,
    plane_sweep_mbr_join,
)
from repro.join.objects import make_objects
from repro.join.pipeline import run_find_relation
from repro.parallel import run_find_relation_parallel
from repro.raster import RasterGrid, pad_dataspace
from repro.store.engine import Engine
from tests.test_join_mbr_join import shared_tiles_owning


def random_boxes(rng: np.random.Generator, n: int, degenerate: bool = True) -> list[Box]:
    """Adversarial boxes: integer corners (exact boundary collisions),
    zero-width/height degenerates, and shared edges."""
    boxes = []
    for _ in range(n):
        x0, y0 = rng.integers(0, 16, size=2)
        kind = rng.integers(0, 4)
        if kind == 0 and degenerate:  # a point or a segment
            w, h = rng.integers(0, 2, size=2) * int(rng.integers(0, 5))
        else:
            w, h = rng.integers(1, 6, size=2)
        boxes.append(Box(float(x0), float(y0), float(x0 + w), float(y0 + h)))
    return boxes


def assert_each_pair_owned_once(r_boxes, s_boxes, tiles_per_dim):
    """What a tile-partitioned join needs of ``TileLayout``: among the
    tiles both boxes of an intersecting pair are replicated to, exactly
    one claims the pair."""
    layout = TileLayout(Box.union_all(list(r_boxes) + list(s_boxes)), tiles_per_dim)
    for i, j in brute_force_mbr_join(r_boxes, s_boxes):
        owners = shared_tiles_owning(layout, r_boxes[i], s_boxes[j])
        assert len(owners) == 1, f"pair ({i}, {j}), tiles_per_dim={tiles_per_dim}"


class TestPairSetEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_sweep_and_grid_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        r_boxes = random_boxes(rng, 40)
        s_boxes = random_boxes(rng, 40)
        truth = set(brute_force_mbr_join(r_boxes, s_boxes))
        assert set(plane_sweep_mbr_join(r_boxes, s_boxes)) == truth
        for tiles in (1, 2, 3, 5):
            assert_each_pair_owned_once(r_boxes, s_boxes, tiles)

    def test_edges_exactly_on_tile_boundaries(self):
        # Universe 0..8; with tiles_per_dim=4 every integer coordinate
        # that is a multiple of 2 is exactly a tile boundary. Boxes
        # whose edges sit on those boundaries (and pairs meeting only
        # along them) exercise the owner-tile rule's worst case.
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
        for tiles in (1, 2, 4, 8):
            assert_each_pair_owned_once(r_boxes, s_boxes, tiles)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_tile_partition_covers_each_pair_once(self, seed, tmp_path):
        # Integer-cornered rectangles in a 0..24 universe: with 3 or 4
        # tiles per axis the tile boundaries (multiples of 8, of 6) are
        # coordinates many edges sit on exactly. The disk join must
        # report every pair once — serial's rows.
        rng = np.random.default_rng(seed)
        anchors = [Box(0.0, 0.0, 1.0, 1.0), Box(23.0, 23.0, 24.0, 24.0)]
        r_polys, s_polys = (
            [
                Polygon.box(b.xmin, b.ymin, b.xmax, b.ymax)
                for b in anchors + random_boxes(rng, 20, degenerate=False)
            ]
            for _ in range(2)
        )
        engine = Engine()
        serial = engine.join(r_polys, s_polys, mode="serial", grid_order=7)
        assert serial.results
        for tiles in (3, 4):
            disk = engine.join(
                r_polys, s_polys, mode="disk", grid_order=7,
                tiles_per_dim=tiles, workdir=tmp_path / f"tiles{tiles}",
            )
            assert [(l.r_index, l.s_index, l.relation) for l in disk.results] == [
                (l.r_index, l.s_index, l.relation) for l in serial.results
            ], f"tiles_per_dim={tiles}"

    def test_empty_inputs(self, tmp_path):
        # A side with nothing in it spills no tile file: no tile is
        # joined and no row reported.
        extent = Box(0.0, 0.0, 8.0, 8.0)
        disk = DiskPartitionedJoin(tmp_path, tiles_per_dim=2, grid_order=7)
        disk.partition("r", [Polygon.box(1.0, 1.0, 7.0, 7.0)], extent)
        disk.partition("s", [], extent)
        assert disk.run(include_disjoint=True).results == []


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

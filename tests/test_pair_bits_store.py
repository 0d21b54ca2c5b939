"""The filter bits gathered from per-dataset stores equal the per-call
packer they replaced, and a warm join packs nothing.

The oracle is ``tests/oracles/pair_bits.py``: the code that packed every
stream's distinct objects into sides and their lists into one CSR block
per call. Every name of :data:`BIT_NAMES` must come out the same from
the one store a list's objects defer to (gathered by object id), from
a store packed of objects that carry their own lists, and from the
oracle; on random streams, with empty P lists, repeated objects, streams
of one pair, and an expansion budget of one interval.
"""

import numpy as np
import pytest

import repro.filters.pair_bits as pair_bits
from repro import Engine
from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs, generate_buildings
from repro.filters.pair_bits import BIT_NAMES, PairBits
from repro.geometry import Box, MultiPolygon, Polygon
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import SpatialObject, make_objects
from repro.join.pipeline import PIPELINES
from repro.parallel.executor import fork_available, run_find_relation_parallel
from repro.raster import RasterGrid
from repro.raster.april import AprilApproximation, AprilColumns
from repro.raster.intervals import IntervalList, ListColumns
from repro.store.dataset import build_dataset
from repro.topology.de9im import TopologicalRelation as T
from tests.oracles import pair_bits as oracle

GRID = RasterGrid(Box(0, 0, 8, 8), order=3)


def _lists(rng, empty_share):
    if rng.random() < empty_share:
        return IntervalList()
    return IntervalList.from_cells(rng.choice(64, size=int(rng.integers(1, 14)), replace=False))


def _random_objects(rng, n):
    """Objects with random lists (a third of the P lists empty), boxes
    on a small lattice and some of them disconnected; the filter reads
    no polygon, so every object has the same one."""
    square = Polygon.box(0, 0, 1, 1)
    objects = []
    for k in range(n):
        x, y = rng.integers(0, 6, 2).astype(float)
        w, h = rng.integers(0, 4, 2).astype(float)
        box = Box(x, y, x + w, y + h)
        april = AprilApproximation(GRID, _lists(rng, 0.33), _lists(rng, 0.05))
        obj = SpatialObject(k, square, box, april)
        obj.is_connected = bool(rng.random() < 0.8)
        objects.append(obj)
    return objects


def _with_store(objects):
    """``objects`` deferring to one store of their own, row ``k``
    object ``k``'s."""
    store = AprilColumns.of(
        [o.april for o in objects], [o.box for o in objects], [o.is_connected for o in objects]
    )
    polygons = [o.polygon for o in objects]
    return [
        SpatialObject.deferred(k, polygons, o.box, o.is_connected, store)
        for k, o in enumerate(objects)
    ]


def _all_bits(bits, count):
    rows = np.arange(count)
    return {name: bits.bit(name, rows).tolist() for name in BIT_NAMES}


def _assert_equal_bits(r_objects, s_objects, pairs):
    want = _all_bits(oracle.PairBits.of_objects(r_objects, s_objects, pairs), len(pairs))
    packed = _all_bits(PairBits.of_objects(r_objects, s_objects, pairs), len(pairs))
    gathered = _all_bits(
        PairBits.of_objects(_with_store(r_objects), _with_store(s_objects), pairs), len(pairs)
    )
    for name in BIT_NAMES:
        assert packed[name] == want[name], name
        assert gathered[name] == want[name], name
    return want


@pytest.mark.parametrize("budget", [1, 1 << 20])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_store_bits_equal_the_per_call_packer_on_random_streams(monkeypatch, budget, seed):
    monkeypatch.setattr(pair_bits, "_BUDGET", budget)
    monkeypatch.setattr(oracle, "_BUDGET", budget)
    rng = np.random.default_rng(seed)
    r_objects, s_objects = _random_objects(rng, 60), _random_objects(rng, 45)
    # Repeated objects: 900 pairs over 60 x 45 objects.
    pairs = list(zip(rng.integers(0, 60, 900).tolist(), rng.integers(0, 45, 900).tolist()))
    # The same lists on both sides, so that ``match`` holds now and then.
    for k in range(5):
        s_objects[k] = SpatialObject(k, s_objects[k].polygon, r_objects[k].box, r_objects[k].april)
        pairs[k] = (k, k)
    want = _assert_equal_bits(r_objects, s_objects, pairs)
    for name in BIT_NAMES:
        if not name.startswith("mbr_"):
            assert 0 < sum(want[name]) < len(pairs), name
    assert any(not o.april.p for o in r_objects)


@pytest.mark.parametrize("budget", [1, 1 << 20])
def test_store_bits_equal_the_per_call_packer_on_streams_of_one_pair(monkeypatch, budget):
    monkeypatch.setattr(pair_bits, "_BUDGET", budget)
    monkeypatch.setattr(oracle, "_BUDGET", budget)
    rng = np.random.default_rng(7)
    r_objects, s_objects = _random_objects(rng, 12), _random_objects(rng, 12)
    for i in range(12):
        _assert_equal_bits(r_objects, s_objects, [(i, (5 * i) % 12)])


def test_store_bits_equal_the_per_call_packer_on_a_generated_join():
    rng = np.random.default_rng(3)
    region = Box(0, 0, 300, 300)
    parks = generate_blobs(rng, 30, region, (4, 40), (8, 60))
    buildings = generate_buildings(rng, 200, region, (1, 6), hosts=parks, hosted_fraction=0.5)
    multis = [
        MultiPolygon([a, b]) for a, b in zip(parks[::2], parks[1::2]) if a.bbox.disjoint(b.bbox)
    ]
    grid = RasterGrid(region, order=8)
    r_objects = make_objects(buildings + multis, grid)
    s_objects = make_objects(parks + multis, grid)
    pairs = sorted(plane_sweep_mbr_join([o.box for o in r_objects], [o.box for o in s_objects]))
    rows = np.arange(len(pairs))
    want = oracle.PairBits.of_objects(r_objects, s_objects, pairs)
    got = PairBits.of_objects(r_objects, s_objects, pairs)
    assert got.stores["r"] is r_objects[0].store  # gathered, not packed
    # A reordered list is read by object id, not by position.
    moved = r_objects[::-1]
    last = len(r_objects) - 1
    reordered = PairBits.of_objects(moved, s_objects, [(last - i, j) for i, j in pairs])
    assert reordered.stores["r"] is r_objects[0].store
    for name in BIT_NAMES:
        assert got.bit(name, rows).tolist() == want.bit(name, rows).tolist(), name
        assert reordered.bit(name, rows).tolist() == want.bit(name, rows).tolist(), name


# ----------------------------------------------------------------------
# the stores themselves
# ----------------------------------------------------------------------
def test_a_store_is_a_sequence_of_views_and_fills_by_id():
    rng = np.random.default_rng(5)
    aprils = [AprilApproximation(GRID, _lists(rng, 0.3), _lists(rng, 0.0)) for _ in range(20)]
    store = AprilColumns.of(aprils)
    assert len(store) == 20 and store.nbytes == sum(a.nbytes for a in aprils)
    assert list(store) == aprils
    assert store[-1] == aprils[-1]
    with pytest.raises(IndexError):
        store[20]
    ids = np.array([3, 3, 17, 0])
    assert list(store.take(ids)) == [aprils[i] for i in ids]
    boxes = np.zeros((20, 4))
    partial = AprilColumns.unbuilt(GRID, boxes, np.ones(20, dtype=bool))
    assert all(a is None for a in partial)
    partial.fill(np.array([2, 9, 11]), store.take([2, 9, 11]))
    assert [k for k, a in enumerate(partial) if a is not None] == [2, 9, 11]
    assert [partial[k] for k in (2, 9, 11)] == [aprils[k] for k in (2, 9, 11)]
    rest = np.setdiff1d(np.arange(20), [2, 9, 11])
    partial.fill(rest, store.take(rest))
    assert partial.built is None and list(partial) == aprils
    halves = AprilColumns.concat([store.take(np.arange(7)), store.take(np.arange(7, 20))])
    assert list(halves) == aprils
    assert list(ListColumns.of([a.c for a in aprils])) == [a.c for a in aprils]


def test_stores_on_incompatible_grids_are_refused():
    squares = [Polygon.box(0, 0, 4, 4), Polygon.box(6, 6, 7, 7)]
    r_objects = make_objects(squares, RasterGrid(Box(0, 0, 8, 8), order=3))
    s_objects = make_objects([Polygon.box(1, 1, 3, 3)], RasterGrid(Box(0, 0, 8, 8), order=4))
    for method in ("APRIL", "P+C"):
        with pytest.raises(ValueError, match="different grids"):
            PIPELINES[method].filter_pairs(r_objects, s_objects, [(0, 0)])
        # A verdict the MBRs settle reads no list.
        (verdict, _), = PIPELINES[method].filter_pairs(r_objects, s_objects, [(1, 0)])
        assert verdict.definite is T.DISJOINT


def test_objects_without_lists_are_refused_by_a_list_bit():
    objects = make_objects([Polygon.box(0, 0, 4, 4)])
    with pytest.raises(ValueError, match="no APRIL approximation"):
        PIPELINES["P+C"].filter_pairs(objects, objects, [(0, 0)])
    verdict, _ = PIPELINES["OP2"].filter_pair(objects[0], objects[0])
    assert verdict.refine_candidates


# ----------------------------------------------------------------------
# a warm join packs nothing
# ----------------------------------------------------------------------
@pytest.fixture
def spies(monkeypatch):
    """Counts of the engine's store constructions, of every packing of
    per-object lists and of every per-object view of a store."""
    counts = {"unbuilt": 0, "lists": 0, "view": 0}
    unbuilt, lists_of = AprilColumns.unbuilt.__func__, ListColumns.of.__func__
    view = ListColumns.__getitem__

    def counted(name, function):
        def spy(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return spy

    monkeypatch.setattr(AprilColumns, "unbuilt", classmethod(counted("unbuilt", unbuilt)))
    monkeypatch.setattr(ListColumns, "of", classmethod(counted("lists", lists_of)))
    monkeypatch.setattr(ListColumns, "__getitem__", counted("view", view))
    return counts


def _polygons():
    rng = np.random.default_rng(9)
    region = Box(0, 0, 200, 200)
    parks = generate_blobs(rng, 25, region, (4, 30), (8, 40))
    buildings = generate_buildings(rng, 150, region, (1, 5), hosts=parks, hosted_fraction=0.5)
    return buildings, parks


@pytest.mark.parametrize("predicate", [None, T.INSIDE])
def test_warm_index_joins_build_each_store_once_and_split_nothing(tmp_path, spies, predicate):
    dirs = []
    for name, polygons in zip("rs", _polygons()):
        save_wkt_file(tmp_path / f"{name}.wkt", polygons)
        dirs.append(build_dataset(tmp_path / f"{name}.wkt", tmp_path / f"{name}_idx").path)
    engine = Engine()
    cold = engine.join(*dirs, grid_order=9, predicate=predicate)
    # One store per (dataset, grid), built empty and filled in place.
    assert spies == {"unbuilt": 2, "lists": 0, "view": 0}
    spies["unbuilt"] = 0
    for _ in range(3):
        warm = engine.join(*dirs, grid_order=9, predicate=predicate)
        assert warm.results == cold.results
    assert spies == {"unbuilt": 0, "lists": 0, "view": 0}
    # A new grid is a new store per dataset.
    engine.join(*dirs, grid_order=8, predicate=predicate)
    assert spies == {"unbuilt": 2, "lists": 0, "view": 0}
    # A fresh engine decodes the persisted payloads straight into stores.
    spies["unbuilt"] = 0
    fresh = Engine().join(*dirs, grid_order=9, predicate=predicate)
    assert fresh.results == cold.results
    assert spies == {"unbuilt": 2, "lists": 0, "view": 0}


def test_warm_in_memory_joins_split_nothing(spies):
    r, s = _polygons()
    engine = Engine()
    cold = engine.join(r, s, grid_order=9)
    assert spies == {"unbuilt": 2, "lists": 0, "view": 0}
    spies["unbuilt"] = 0
    warm = engine.join(r, s, grid_order=9)
    assert warm.results == cold.results
    assert spies == {"unbuilt": 0, "lists": 0, "view": 0}


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_a_forked_join_keys_each_store_once_before_the_fork():
    grid = RasterGrid(Box(0, 0, 200, 200), order=9)
    r_objects, s_objects = (make_objects(polygons, grid) for polygons in _polygons())
    pairs = sorted(plane_sweep_mbr_join([o.box for o in r_objects], [o.box for o in s_objects]))
    forked = run_find_relation_parallel("P+C", r_objects, s_objects, pairs, workers=2)
    assert forked.workers == 2
    # The parent filtered nothing, so its keys were built for the workers.
    for objects in (r_objects, s_objects):
        assert objects[0].store.p.keyed is not None and objects[0].store.c.keyed is not None
    serial = run_find_relation_parallel("P+C", r_objects, s_objects, pairs, workers=1)
    assert forked.results == serial.results

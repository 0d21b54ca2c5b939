"""The Fig. 6 decision trees equal the per-pair handlers they replaced.

**A proof, by enumeration** (``tests/symbolic.py``). A handler of
``tests/oracles/relate_filters`` is explored symbolically over the bits
it can read, which partitions the whole space into cubes, each with the
handler's verdict. The tree is evaluated by the product's own
:func:`decide` over every row of that space — 6 MBR cases x 2 x 2
strictnesses x 2 connectivities x 2**11 list bits — and must give each
cube's verdict on each of its rows.

The kernel that computes the bits is checked separately: its MBR bits
against :class:`~repro.geometry.box.Box` and
:func:`~repro.filters.mbr.classify_mbr_pair` on boxes with shared
coordinates, its list bits against the
:class:`~repro.raster.intervals.IntervalList` relations, and the whole
batch against the handlers on the candidate pairs of generated inputs.
"""

import numpy as np
import pytest

import repro.filters.pair_bits as pair_bits
from repro.datasets.synthetic import generate_blobs, generate_buildings
from repro.filters.mbr import MBRRelationship as M, classify_mbr_pair
from repro.filters.pair_bits import BIT_NAMES, MBR_BITS, PairBits
from repro.filters.relate_filters import (
    CODES,
    TREES,
    VERDICTS,
    If,
    RelateVerdict,
    decide,
    relate_filter,
    relate_verdicts,
)
from repro.geometry import Box, MultiPolygon, Polygon
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import make_objects
from repro.raster import RasterGrid, build_april
from repro.raster.april import AprilApproximation, AprilColumns
from repro.raster.intervals import IntervalList
from repro.topology.de9im import TopologicalRelation as T
from tests import symbolic
from tests.oracles import relate_filters as oracle
from tests.symbolic import (
    DOMAIN,
    LIST_BITS,
    StandInApril,
    StandInBox,
    StandInFlag,
    TableBits,
)


def handler_cubes(predicate):
    """The handler's verdict on every cube of ``DOMAIN``: ``(fixed facts,
    verdict)`` pairs whose cubes partition the product."""
    return symbolic.cubes(DOMAIN, lambda facts: oracle.relate_filter(
        predicate,
        StandInBox("r", facts), StandInBox("s", facts),
        StandInApril("r", facts), StandInApril("s", facts),
        StandInFlag("connected", facts),
    ))


@pytest.fixture(scope="module")
def space():
    return symbolic.space(DOMAIN)


@pytest.mark.parametrize("predicate", list(T), ids=lambda p: p.name)
def test_tree_equals_its_handler_on_every_bit_assignment(predicate, space):
    rows = next(iter(space.values())).size
    assert rows == 6 * 2 * 2 * 2 * 2**11
    bits = TableBits(space)
    codes = decide(TREES[predicate], bits, rows)
    covered = np.zeros(rows, dtype=np.int64)
    for fixed, verdict in handler_cubes(predicate):
        mask = symbolic.rows_of(space, fixed)
        covered += mask
        wrong = np.flatnonzero(codes[mask] != CODES[verdict])
        assert wrong.size == 0, (fixed, verdict, VERDICTS[codes[mask][wrong[0]]])
    assert (covered == 1).all()  # the cubes partition the space


def test_trees_are_data_over_named_bits():
    def walk(tree):
        if isinstance(tree, RelateVerdict):
            return set()
        assert isinstance(tree, If)
        return {tree.bit} | walk(tree.then) | walk(tree.otherwise)

    for tree in TREES.values():
        assert walk(tree) <= set(BIT_NAMES)


# ----------------------------------------------------------------------
# the kernel's bits
# ----------------------------------------------------------------------
def _boxes(rng, n):
    lo = rng.integers(0, 6, size=(n, 2)).astype(float)
    size = rng.integers(0, 5, size=(n, 2)).astype(float)
    return [Box(x, y, x + w, y + h) for (x, y), (w, h) in zip(lo, size)]


def test_mbr_bits_equal_the_box_predicates():
    rng = np.random.default_rng(5)
    r_boxes, s_boxes = _boxes(rng, 4000), _boxes(rng, 4000)
    no_lists = [None] * len(r_boxes)
    slots = np.arange(len(r_boxes))
    bits = PairBits(
        AprilColumns.of(no_lists, r_boxes, [True] * len(r_boxes)),
        AprilColumns.of(no_lists, s_boxes, [True] * len(s_boxes)),
        slots, slots,
    )
    cases = [classify_mbr_pair(r, s) for r, s in zip(r_boxes, s_boxes)]
    expected = {
        "mbr_disjoint": [c is M.DISJOINT for c in cases],
        "mbr_equal": [c is M.EQUAL for c in cases],
        "mbr_cross": [c is M.CROSS for c in cases],
        "mbr_r_in_s": [s.contains_box(r) for r, s in zip(r_boxes, s_boxes)],
        "mbr_s_in_r": [r.contains_box(s) for r, s in zip(r_boxes, s_boxes)],
        "mbr_r_strictly_in_s": [s.strictly_contains_box(r) for r, s in zip(r_boxes, s_boxes)],
        "mbr_s_strictly_in_r": [r.strictly_contains_box(s) for r, s in zip(r_boxes, s_boxes)],
    }
    assert set(expected) == set(MBR_BITS)
    for name, want in expected.items():
        assert bits.bit(name, slots).tolist() == want, name
        assert any(want), name


def _interval_list(rng):
    cells = rng.choice(64, size=int(rng.integers(0, 12)), replace=False)
    return IntervalList.from_cells(cells)


@pytest.mark.parametrize("budget", [1, 7, 1 << 20])
def test_list_bits_equal_the_interval_relations(monkeypatch, budget):
    monkeypatch.setattr(pair_bits, "_BUDGET", budget)
    rng = np.random.default_rng(budget)
    grid = RasterGrid(Box(0, 0, 8, 8), order=3)
    box = Box(0, 0, 1, 1)

    def side(n):
        aprils = [
            AprilApproximation(grid, _interval_list(rng), _interval_list(rng)) for _ in range(n)
        ]
        return AprilColumns.of(aprils, [box] * n, [True] * n), aprils

    (r, r_aprils), (s, s_aprils) = side(40), side(30)
    r_slot, s_slot = rng.integers(0, 40, 1200), rng.integers(0, 30, 1200)
    # Identical lists, so that ``match`` also holds now and then.
    s_aprils[0] = r_aprils[0]
    s = AprilColumns.of(s_aprils, [box] * 30, [True] * 30)
    r_slot[:50], s_slot[:50] = 0, 0
    bits = PairBits(r, s, r_slot, s_slot)
    rows = np.arange(r_slot.size)
    pairs = [(r_aprils[i], s_aprils[j]) for i, j in zip(r_slot, s_slot)]
    lists = {
        "rC": lambda a, b: a.c, "rP": lambda a, b: a.p,
        "sC": lambda a, b: b.c, "sP": lambda a, b: b.p,
    }
    methods = {"overlap": "overlaps", "inside": "inside", "match": "matches"}
    for name in LIST_BITS:
        relation, *operands = name.split("_")
        if relation == "nonempty":
            want = [bool(lists[operands[0]](a, b)) for a, b in pairs]
        else:
            x, y = (lists[op] for op in operands)
            want = [getattr(x(a, b), methods[relation])(y(a, b)) for a, b in pairs]
        got = bits.bit(name, rows).tolist()
        assert got == want, name
        assert 0 < sum(want) < len(want), name


def test_lists_on_different_grids_are_refused():
    square = AprilApproximation(
        RasterGrid(Box(0, 0, 8, 8), order=3), IntervalList(), IntervalList([(0, 4)])
    )
    other = AprilApproximation(
        RasterGrid(Box(0, 0, 8, 8), order=4), IntervalList(), IntervalList([(0, 4)])
    )
    box = Box(0, 0, 1, 1)
    with pytest.raises(ValueError, match="different grids"):
        relate_filter(T.INSIDE, box, Box(-1, -1, 2, 2), square, other)
    # A verdict the MBRs settle reads no list.
    assert relate_filter(T.EQUALS, box, Box(0, 0, 2, 2), square, other) is RelateVerdict.NO


# ----------------------------------------------------------------------
# the batch against the handlers, on real candidate streams
# ----------------------------------------------------------------------
def _generated_objects():
    rng = np.random.default_rng(11)
    region = Box(0, 0, 400, 400)
    parks = generate_blobs(rng, 40, region, (4, 40), (8, 60))
    buildings = generate_buildings(rng, 300, region, (1, 6), hosts=parks, hosted_fraction=0.5)
    # Pairs of parks as multipolygons: ``connected`` is False for them.
    multis = [
        MultiPolygon([a, b]) for a, b in zip(parks[::2], parks[1::2]) if a.bbox.disjoint(b.bbox)
    ]
    grid = RasterGrid(region, order=8)
    # Parks on both sides, so that r also contains and covers s.
    r_polygons = buildings + parks[:20] + multis
    s_polygons = parks + buildings[:100] + multis
    r_objects = make_objects(r_polygons, grid)
    s_objects = make_objects(s_polygons, grid)
    pairs = plane_sweep_mbr_join([p.bbox for p in r_polygons], [p.bbox for p in s_polygons])
    return r_objects, s_objects, sorted(pairs)


@pytest.fixture(scope="module")
def stream():
    return _generated_objects()


@pytest.mark.parametrize("predicate", list(T), ids=lambda p: p.name)
def test_batch_equals_the_handlers_on_a_candidate_stream(predicate, stream):
    r_objects, s_objects, pairs = stream
    assert any(not o.is_connected for o in r_objects)
    got = [VERDICTS[c] for c in relate_verdicts(predicate, r_objects, s_objects, pairs)]
    want = []
    for i, j in pairs:
        r, s = r_objects[i], s_objects[j]
        want.append(oracle.relate_filter(
            predicate, r.box, s.box, r.april, s.april, r.is_connected and s.is_connected
        ))
    assert got == want
    assert len(set(got)) > 1


def test_relate_filter_is_the_batch_of_one():
    grid = RasterGrid(Box(0, 0, 64, 64), order=8)
    r = MultiPolygon([Polygon.box(2, 2, 10, 10), Polygon.box(20, 20, 30, 30)])
    s = Polygon.box(5, 5, 25, 25)
    ra, sa = build_april(r, grid), build_april(s, grid)
    for predicate in T:
        for connected in (True, False):
            assert relate_filter(predicate, r.bbox, s.bbox, ra, sa, connected) is (
                oracle.relate_filter(predicate, r.bbox, s.bbox, ra, sa, connected)
            )

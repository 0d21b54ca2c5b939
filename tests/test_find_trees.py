"""The find-relation decision trees equal the per-pair flows they replaced.

**A proof, by enumeration** (``tests/symbolic.py``). Each method's
per-pair ``filter_pair`` of ``tests/oracles/find_filters`` — for P+C
the MBR case analysis and the Fig. 5 flows behind it — reads its pair
only through the MBR case, ``connected`` and eleven Sec. 3.2 relations
of the P/C lists. Explored symbolically, it partitions the space of
6 MBR cases x 2 connectivities x 2**11 list bits into cubes, each with
its verdict and stage; the method's tree, walked by the product's own
``decide`` over every row of the space, must reach the same
:class:`~repro.filters.intermediate.Leaf` on each row of each cube.

The batch is then checked against the flows on the candidate pairs of
generated inputs with multipolygons, the grid refusal on both, and the
counters a join reports (``JoinRunStats`` and ``repro_verdicts_total``)
against a per-pair recount through the flows.
"""

from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.datasets.synthetic import generate_blobs, generate_buildings
from repro.filters.intermediate import FIND_TREES, IFResult, Leaf, Stage
from repro.filters.mbr import classify_mbr_pair
from repro.filters.pair_bits import BIT_NAMES
from repro.filters.relate_filters import If
from repro.geometry import Box, MultiPolygon, Polygon
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import SpatialObject, make_objects
from repro.join.pipeline import PIPELINES, verify_find_relation
from repro.join.stats import JoinRunStats
from repro.raster import RasterGrid
from repro.raster.april import AprilApproximation
from repro.raster.intervals import IntervalList
from repro.topology.de9im import TopologicalRelation as T
from tests import symbolic
from tests.oracles import find_filters as oracle
from tests.symbolic import CASES, LIST_BITS, StandInObject, TableBits

#: The facts a method's per-pair filter may read, with their values.
FIND_DOMAIN = {
    "case": CASES,
    "connected": (False, True),
    **{bit: (False, True) for bit in LIST_BITS},
}
METHODS = list(FIND_TREES)


def flow_cubes(method):
    """The oracle method's ``(IFResult, Stage)`` on every cube."""
    flow = oracle.PIPELINES[method]
    return symbolic.cubes(FIND_DOMAIN, lambda facts: flow.filter_pair(
        StandInObject("r", facts), StandInObject("s", facts)
    ))


@pytest.fixture(scope="module")
def space():
    return symbolic.space(FIND_DOMAIN)


@pytest.mark.parametrize("method", METHODS)
def test_tree_equals_its_flow_on_every_bit_assignment(method, space):
    rows = next(iter(space.values())).size
    assert rows == 6 * 2 * 2**11
    pipeline = PIPELINES[method]
    codes = pipeline.filter_codes(TableBits(space), rows)
    covered = np.zeros(rows, dtype=np.int64)
    reached = set()
    for fixed, (verdict, stage) in flow_cubes(method):
        mask = symbolic.rows_of(space, fixed)
        covered += mask
        want = Leaf(verdict, stage)
        got = {pipeline.leaves[c] for c in np.unique(codes[mask]).tolist()}
        assert got == {want}, (fixed, want, got)
        reached.add(want)
    assert (covered == 1).all()  # the cubes partition the space
    # Every leaf of the tree is some cube's verdict: no dead leaves.
    assert reached == set(pipeline.leaves)


def test_trees_are_data_over_named_bits():
    def walk(tree):
        if isinstance(tree, Leaf):
            assert isinstance(tree.result, IFResult) and isinstance(tree.stage, Stage)
            return set()
        assert isinstance(tree, If)
        return {tree.bit} | walk(tree.then) | walk(tree.otherwise)

    for tree in FIND_TREES.values():
        assert walk(tree) <= set(BIT_NAMES)
    # ST2 reads one bit; the others reach the lists only past the MBRs.
    assert walk(FIND_TREES["ST2"]) == {"mbr_disjoint"}
    assert walk(FIND_TREES["OP2"]) <= {b for b in BIT_NAMES if b.startswith("mbr_")} | {"connected"}


# ----------------------------------------------------------------------
# the batch against the flows, on a real candidate stream
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
    # Shapes on both sides, so that every MBR case occurs, equal MBRs
    # included (the same shape on both sides).
    r_polygons = buildings + parks[:20] + multis
    s_polygons = parks + buildings[:100] + multis
    r_objects = make_objects(r_polygons, grid)
    s_objects = make_objects(s_polygons, grid)
    pairs = plane_sweep_mbr_join([p.bbox for p in r_polygons], [p.bbox for p in s_polygons])
    return r_objects, s_objects, sorted(pairs)


@pytest.fixture(scope="module")
def stream():
    return _generated_objects()


@pytest.mark.parametrize("method", METHODS)
def test_batch_equals_the_flow_on_a_candidate_stream(method, stream):
    r_objects, s_objects, pairs = stream
    assert any(not o.is_connected for o in r_objects)
    assert {classify_mbr_pair(r_objects[i].box, s_objects[j].box) for i, j in pairs} >= set(
        CASES[1:]
    )
    got = PIPELINES[method].filter_pairs(r_objects, s_objects, pairs)
    want = oracle.PIPELINES[method].filter_pairs(r_objects, s_objects, pairs)
    assert got == want
    # ST2 refines every pair an MBR join gives; the others decide some.
    assert len(set(got)) == 1 if method == "ST2" else len(set(got)) > 2
    assert PIPELINES[method].filter_pair(r_objects[0], s_objects[0]) == (
        oracle.PIPELINES[method].filter_pair(r_objects[0], s_objects[0])
    )


def _square(order):
    grid = RasterGrid(Box(0, 0, 8, 8), order=order)
    return AprilApproximation(grid, IntervalList(), IntervalList([(0, 4)]))


@pytest.mark.parametrize("method", ["APRIL", "P+C"])
def test_lists_on_different_grids_are_refused(method):
    def obj(oid, box, april):
        return SpatialObject(oid, Polygon.box(box.xmin, box.ymin, box.xmax, box.ymax), box, april)

    r = obj(0, Box(0, 0, 1, 1), _square(3))
    nested = obj(1, Box(-1, -1, 2, 2), _square(4))
    far = obj(2, Box(5, 5, 6, 6), _square(4))
    for flow in (PIPELINES[method], oracle.PIPELINES[method]):
        with pytest.raises(ValueError, match="different grids"):
            flow.filter_pair(r, nested)
        # A verdict the MBRs settle reads no list.
        verdict, stage = flow.filter_pair(r, far)
        assert verdict.definite is T.DISJOINT and stage is Stage.MBR


def test_mbr_methods_need_no_april():
    r = SpatialObject.from_polygon(0, Polygon.box(0, 0, 4, 4))
    s = SpatialObject.from_polygon(1, Polygon.box(2, 2, 6, 6))
    for method in ("ST2", "OP2"):
        assert PIPELINES[method].filter_pair(r, s) == oracle.PIPELINES[method].filter_pair(r, s)
    for method in ("APRIL", "P+C"):
        with pytest.raises(ValueError, match="no APRIL approximation"):
            PIPELINES[method].filter_pair(r, s)
        with pytest.raises(ValueError, match="no APRIL approximation"):
            oracle.PIPELINES[method].filter_pair(r, s)


# ----------------------------------------------------------------------
# the join's counters against a per-pair recount through the flows
# ----------------------------------------------------------------------
@pytest.fixture
def metrics_on():
    obs.disable_all()
    obs.set_metrics(True)
    obs.reset_metrics()
    yield obs.get_registry
    obs.disable_all()


def _recount(method, r_objects, s_objects, pairs):
    """``repro_verdicts_total``, ``JoinRunStats`` and the rows, counted
    pair by pair the way the join counted them before the trees; the
    undecided pairs are refined in one batch."""
    verdicts = oracle.PIPELINES[method].filter_pairs(r_objects, s_objects, pairs)
    undecided = [
        (i, j, verdict.refine_candidates)
        for (i, j), (verdict, _) in zip(pairs, verdicts) if verdict.definite is None
    ]
    refined = iter(PIPELINES[method].refine_pairs(r_objects, s_objects, undecided))
    stats = JoinRunStats(method=method)
    labels = Counter()
    rows = []
    for (i, j), (verdict, stage) in zip(pairs, verdicts):
        relation = verdict.definite
        if relation is None:
            relation, stage = next(refined), Stage.REFINEMENT
        stats.record(relation, stage.value)
        labels[(
            ("case", classify_mbr_pair(r_objects[i].box, s_objects[j].box).value),
            ("method", method),
            ("relation", relation.value),
            ("stage", stage.value),
        )] += 1
        rows.append((i, j, relation, stage is not Stage.REFINEMENT))
    return stats, labels, rows


_COUNTERS = ("pairs", "resolved_mbr", "resolved_if", "refined", "relation_counts")


@pytest.mark.parametrize("method", METHODS)
def test_join_counters_equal_a_per_pair_recount(method, stream, metrics_on):
    r_objects, s_objects, pairs = stream
    verified = verify_find_relation(PIPELINES[method], r_objects, s_objects, pairs)
    counted = {
        key: value for (name, key), value in metrics_on().counters.items()
        if name == "repro_verdicts_total"
    }
    stats, labels, rows = _recount(method, r_objects, s_objects, pairs)
    assert counted == dict(labels)
    for name in _COUNTERS:
        assert getattr(verified.stats, name) == getattr(stats, name), name
    assert verified.rows == rows
    # Every case but disjoint MBRs (the MBR join drops those).
    assert len({dict(key)["case"] for key in counted}) == len(CASES) - 1

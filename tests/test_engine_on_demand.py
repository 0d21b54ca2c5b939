"""APRIL on demand: a dataset without an index directory rasterises only
the objects its queries touch.

A join approximates the distinct objects of its candidate pairs, a
selection its window's objects, an explain its two objects; a later
query on the same grid builds only what is still missing. Every answer
equals the one a whole-dataset build gives, and every list built equals
the whole-dataset ``build_april_many`` list bit for bit. Index
directories keep their whole-dataset payloads.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs
from repro.geometry import Box, Polygon
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.raster.april import build_april_many
from repro.store import Engine, build_dataset
from repro.topology import TopologicalRelation as T

ORDER = 9
QUERIES = (
    Polygon.box(100, 100, 450, 400),
    Polygon.box(300, 250, 800, 700),
)


@pytest.fixture(scope="module")
def polygons():
    # Sparse enough that many objects have no MBR partner at all.
    rng = np.random.default_rng(40)
    region = Box(0, 0, 1000, 1000)
    r = generate_blobs(rng, 40, region, (10, 60), (8, 40))
    s = generate_blobs(rng, 30, region, (10, 60), (8, 40))
    return r, s


@pytest.fixture(params=["wkt", "list"])
def inputs(request, polygons, tmp_path):
    """The two datasets as ``.wkt`` files or as polygon lists."""
    if request.param == "list":
        return polygons
    paths = tmp_path / "r.wkt", tmp_path / "s.wkt"
    for path, data in zip(paths, polygons):
        save_wkt_file(path, data)
    return paths


@pytest.fixture
def built():
    """Reads ``repro_april_built_total`` since the test began."""
    obs.set_metrics(True)
    obs.reset_metrics()
    yield lambda: obs.get_registry().counter_values().get("repro_april_built_total", 0)
    obs.reset_metrics()
    obs.set_metrics(False)


def candidates(r, s) -> tuple[set, set]:
    pairs = plane_sweep_mbr_join([p.bbox for p in r], [p.bbox for p in s])
    return {i for i, _ in pairs}, {j for _, j in pairs}


def answer(run):
    """Rows plus every stats field that does not time something."""
    stats = dataclasses.asdict(run.stats)
    del stats["filter_seconds"], stats["refine_seconds"]
    return [(l.r_index, l.s_index, l.relation, l.filtered) for l in run.results], stats


def whole_engine(r, s) -> Engine:
    """An engine whose object sets for the join grid are approximated
    in full, as before on-demand builds."""
    engine = Engine()
    rd, sd = engine.dataset(r), engine.dataset(s)
    grid = engine.join_grid(rd, sd, ORDER)
    for dataset in (rd, sd):
        assert all(o.april is not None for o in engine.objects(dataset, grid))
    return engine


def test_the_inputs_leave_objects_untouched(polygons):
    r, s = polygons
    r_ids, s_ids = candidates(r, s)
    assert 0 < len(r_ids) < len(r) and 0 < len(s_ids) < len(s)


@pytest.mark.parametrize("predicate", [None, T.INSIDE, T.INTERSECTS])
@pytest.mark.parametrize("method", ["P+C", "APRIL"])
def test_join_answers_as_a_whole_build(inputs, predicate, method):
    r, s = inputs
    want = whole_engine(r, s).join(r, s, grid_order=ORDER, method=method, predicate=predicate)
    got = Engine().join(r, s, grid_order=ORDER, method=method, predicate=predicate)
    assert answer(got) == answer(want)


def test_parallel_join_fans_out_the_candidate_build(inputs, polygons, built):
    r, s = inputs
    want = whole_engine(r, s).join(r, s, grid_order=ORDER)
    obs.reset_metrics()
    got = Engine().join(r, s, grid_order=ORDER, mode="parallel", workers=2)
    assert answer(got) == answer(want)
    assert built() == sum(map(len, candidates(*polygons)))


@pytest.mark.parametrize("predicate", [T.INTERSECTS, T.INSIDE, T.DISJOINT])
def test_select_answers_as_a_whole_build(inputs, predicate):
    data = inputs[0]
    reference = Engine()
    dataset = reference.dataset(data)
    reference.objects(dataset, dataset.grid(ORDER))
    for query in QUERIES:
        want = reference.select(data, query, predicate, grid_order=ORDER)
        got = Engine().select(data, query, predicate, grid_order=ORDER)
        assert answer(got) == answer(want)


def test_explain_answers_as_a_whole_build(inputs):
    r, s = inputs
    reference = whole_engine(r, s)
    for i, j in ((0, 0), (3, 7), (12, 5)):
        want = reference.explain(r, s, i, j, grid_order=ORDER)
        got = Engine().explain(r, s, i, j, grid_order=ORDER)
        assert got.render() == want.render()


def test_touched_lists_are_the_whole_build_lists(inputs, polygons):
    r, s = inputs
    engine = Engine()
    engine.join(r, s, grid_order=ORDER)
    rd, sd = engine.dataset(r), engine.dataset(s)
    grid = engine.join_grid(rd, sd, ORDER)
    for dataset, touched in zip((rd, sd), candidates(*polygons)):
        objects = engine.objects(dataset, grid, with_april=False)
        assert {o.oid for o in objects if o.april is not None} == touched
        whole = build_april_many(dataset.columns, grid)
        for oid in touched:
            for got, want in ((objects[oid].april.p, whole[oid].p),
                              (objects[oid].april.c, whole[oid].c)):
                assert got.starts.tobytes() == want.starts.tobytes()
                assert got.ends.tobytes() == want.ends.tobytes()


def test_a_cold_join_builds_its_candidate_objects_once(inputs, polygons, built):
    r, s = inputs
    engine = Engine()
    engine.join(r, s, grid_order=ORDER)
    assert built() == sum(map(len, candidates(*polygons)))
    engine.join(r, s, grid_order=ORDER, predicate=T.INSIDE)
    assert built() == sum(map(len, candidates(*polygons)))


def test_a_later_query_on_the_grid_builds_only_the_missing_objects(inputs, polygons, built):
    r, s = inputs
    r_ids, s_ids = candidates(*polygons)
    engine = Engine()
    engine.join(r, s, grid_order=ORDER)
    before = built()
    i = min(set(range(len(polygons[0]))) - r_ids)
    j = min(set(range(len(polygons[1]))) - s_ids)
    engine.explain(r, s, i, j, grid_order=ORDER)
    assert built() == before + 2
    engine.explain(r, s, i, min(s_ids), grid_order=ORDER)
    assert built() == before + 2
    rd, sd = engine.dataset(r), engine.dataset(s)
    engine.objects(rd, engine.join_grid(rd, sd, ORDER))
    assert built() == len(polygons[0]) + len(s_ids) + 1


def test_selections_on_one_grid_share_their_objects(inputs, built):
    data = inputs[0]
    engine = Engine()
    dataset = engine.dataset(data)
    boxes = dataset.columns.boxes
    windows = []
    for query in QUERIES:
        engine.select(data, query, T.INTERSECTS, grid_order=ORDER)
        b = query.bbox
        windows.append(set(np.flatnonzero(
            (boxes[:, 0] <= b.xmax) & (b.xmin <= boxes[:, 2])
            & (boxes[:, 1] <= b.ymax) & (b.ymin <= boxes[:, 3])
        ).tolist()))
    first, second = windows
    assert first - second and second - first
    # One query object rasterised per selection, plus each window's
    # objects the first time they are needed.
    assert built() == len(first | second) + len(QUERIES)


def test_index_directories_keep_whole_payloads(polygons, tmp_path, built):
    r, s = polygons
    dirs = []
    for name, data in (("r", r), ("s", s)):
        save_wkt_file(tmp_path / f"{name}.wkt", data)
        dirs.append(build_dataset(tmp_path / f"{name}.wkt", tmp_path / f"{name}_idx").path)
    cold = Engine().join(*dirs, grid_order=ORDER)
    assert built() == len(r) + len(s)
    warm = Engine().join(*dirs, grid_order=ORDER)
    assert built() == len(r) + len(s)
    assert answer(warm) == answer(cold)


def test_an_index_after_its_files_in_one_engine_fills_in_from_a_whole_payload(
    polygons, tmp_path, built
):
    # A file and its index share a cache identity, so the index finds the
    # file join's partial object sets: it fills in the unbuilt objects
    # from a whole payload, which it persists.
    r, s = polygons
    files, dirs = [], []
    for name, data in (("r", r), ("s", s)):
        files.append(tmp_path / f"{name}.wkt")
        save_wkt_file(files[-1], data)
        dirs.append(build_dataset(files[-1], tmp_path / f"{name}_idx").path)
    engine = Engine()
    from_files = engine.join(*files, grid_order=ORDER)
    from_dirs = engine.join(*dirs, grid_order=ORDER)
    assert answer(from_dirs) == answer(from_files)
    rd, sd = engine.dataset(dirs[0]), engine.dataset(dirs[1])
    grid = engine.join_grid(rd, sd, ORDER)
    for dataset in (rd, sd):
        objects = engine.objects(dataset, grid, with_april=False)
        assert all(o.april is not None for o in objects)
    obs.reset_metrics()
    fresh = Engine().join(*dirs, grid_order=ORDER)
    assert built() == 0
    assert answer(fresh) == answer(from_files)

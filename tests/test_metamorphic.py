"""Metamorphic checks through ``Engine.join``: transformations of a join's
input whose effect on the rows is known without an oracle.

- swapping R and S yields the converse rows, ``(j, i, relation.inverse)``;
- the grid order moves how many pairs are refined, never a row;
- scaling every polygon by a power of two about the origin is exact in
  floating point, so it leaves every relation unchanged;
- so is translating coordinates snapped to multiples of ``2**-30`` by
  whole numbers small enough that no sum needs more than 53 bits;
- index directories (the store and its payload codec) answer the rows
  of the in-memory datasets they were built from, for find-relation
  and relate_p joins alike.

The inputs are the engine suite's fixture (a tessellation and blobs,
seed 21) and the catalog's ``TC`` x ``TZ`` at scale 0.2. The grid-order
sweep and the translation run on the fixture only: at order 12 the
``TC`` x ``TZ`` build alone takes several seconds.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs, generate_tessellation
from repro.geometry import Box, Polygon
from repro.store import Engine, build_dataset
from repro.topology.de9im import TopologicalRelation as T

GRID_ORDER = 7


def _fixture():
    rng = np.random.default_rng(21)
    region = Box(0, 0, 300, 300)
    districts = generate_tessellation(rng, region, 3, 3, edge_points=8)
    blobs = generate_blobs(rng, 30, region, (3, 25), (8, 50))
    return districts, blobs


def _catalog():
    return load_dataset("TC", scale=0.2).polygons, load_dataset("TZ", scale=0.2).polygons


@pytest.fixture(scope="module")
def engine():
    return Engine()


@pytest.fixture(scope="module", params=["tessellation-blobs", "TC-TZ"])
def inputs(request):
    return _fixture() if request.param == "tessellation-blobs" else _catalog()


def _rows(run):
    return [(link.r_index, link.s_index, link.relation) for link in run.results]


def test_swapping_inputs_gives_the_converse(engine, inputs):
    r, s = inputs
    forward = engine.join(r, s, grid_order=GRID_ORDER)
    backward = engine.join(s, r, grid_order=GRID_ORDER)
    assert forward.results
    converse = sorted((j, i, relation.inverse) for i, j, relation in _rows(backward))
    assert sorted(_rows(forward)) == converse


def test_grid_order_moves_refinement_not_rows(engine):
    r, s = _fixture()
    runs = {order: engine.join(r, s, grid_order=order) for order in (7, 9, 11, 12)}
    rows = {order: _rows(run) for order, run in runs.items()}
    assert all(found == rows[7] for found in rows.values())
    refined = [run.stats.refined for run in runs.values()]
    assert len(set(refined)) > 1, refined


@pytest.mark.parametrize("factor", [2.0**-2, 2.0**3, 2.0**10])
def test_power_of_two_scaling_keeps_rows(engine, inputs, factor):
    r, s = inputs
    base = engine.join(r, s, grid_order=GRID_ORDER)
    scaled = engine.join(
        [p.scaled(factor, (0.0, 0.0)) for p in r],
        [p.scaled(factor, (0.0, 0.0)) for p in s],
        grid_order=GRID_ORDER,
    )
    assert _rows(scaled) == _rows(base)


def _snapped(polygon):
    """``polygon`` with every coordinate rounded to a multiple of 2**-30."""

    def snap(ring):
        return [(round(x * 2**30) / 2**30, round(y * 2**30) / 2**30) for x, y in ring.coords]

    return Polygon(snap(polygon.shell), [snap(hole) for hole in polygon.holes])


def test_exact_translation_keeps_rows(engine):
    r, s = ([_snapped(p) for p in side] for side in _fixture())
    base = engine.join(r, s, grid_order=GRID_ORDER)
    moved = engine.join(
        [p.translated(1536, -2048) for p in r],
        [p.translated(1536, -2048) for p in s],
        grid_order=GRID_ORDER,
    )
    assert base.results
    assert _rows(moved) == _rows(base)


@pytest.mark.parametrize("predicate", [None, T.INSIDE], ids=["find", "inside"])
def test_index_directories_answer_the_in_memory_rows(engine, inputs, tmp_path, predicate):
    polygons = dict(zip("rs", inputs))
    for name in "rs":
        save_wkt_file(tmp_path / f"{name}.wkt", polygons[name])
        build_dataset(tmp_path / f"{name}.wkt", tmp_path / f"{name}_idx")
    # Both directions: every inside row of these inputs is an s in an r.
    found = 0
    for a, b in ("rs", "sr"):
        expected = _rows(
            engine.join(polygons[a], polygons[b], grid_order=GRID_ORDER, predicate=predicate)
        )
        found += len(expected)
        # The cold join persists the payloads; a fresh engine decodes them.
        for join_engine in (Engine(), Engine()):
            run = join_engine.join(
                tmp_path / f"{a}_idx", tmp_path / f"{b}_idx",
                grid_order=GRID_ORDER, predicate=predicate,
            )
            assert _rows(run) == expected
    assert found

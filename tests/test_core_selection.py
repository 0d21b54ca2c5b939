"""Topological selection queries (``Engine.select``) against brute-force
DE-9IM, for polygon lists, ``.wkt`` files and index directories."""

import numpy as np
import pytest

from repro import obs
from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs
from repro.geometry import Box, Polygon
from repro.store import Engine, SpatialDataset, build_dataset
from repro.topology import TopologicalRelation as T, relate
from repro.topology.de9im import relation_holds

GRID_ORDER = 10


@pytest.fixture(scope="module")
def polygons():
    rng = np.random.default_rng(99)
    return generate_blobs(rng, 60, Box(0, 0, 400, 400), (2, 30), (8, 80))


@pytest.fixture(scope="module")
def dataset(polygons):
    return SpatialDataset.from_polygons(polygons)


@pytest.fixture(scope="module")
def engine():
    with Engine() as engine:
        yield engine


def select(engine, dataset, query, predicate):
    run = engine.select(dataset, query, predicate, grid_order=GRID_ORDER)
    assert all(j == 0 for _, j in run.matches)
    return [i for i, _ in run.matches]


def brute_force(polygons, query, predicate):
    return sorted(
        i
        for i, p in enumerate(polygons)
        if relation_holds(relate(p, query), predicate)
    )


QUERIES = [
    Polygon.box(50, 50, 250, 250),
    Polygon([(0, 0), (400, 0), (0, 400)]),
    Polygon.box(390, 390, 420, 420),  # pokes beyond the dataset extent
]


class TestSelect:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize(
        "predicate",
        [T.INTERSECTS, T.INSIDE, T.COVERED_BY, T.DISJOINT, T.MEETS, T.CONTAINS],
    )
    def test_matches_bruteforce(self, engine, dataset, polygons, query, predicate):
        got = select(engine, dataset, query, predicate)
        want = brute_force(polygons, query, predicate)
        assert got == want, (predicate, got, want)

    @pytest.mark.parametrize("predicate", list(T), ids=lambda p: p.value)
    def test_every_predicate_beyond_the_extent(self, engine, dataset, polygons, predicate):
        for query in (Polygon.box(-50, -50, 450, 450), Polygon.box(500, 500, 600, 600)):
            got = select(engine, dataset, query, predicate)
            assert got == brute_force(polygons, query, predicate), (predicate, query)

    def test_disjoint_plus_intersects_partition(self, engine, dataset, polygons):
        query = QUERIES[0]
        disjoint = set(select(engine, dataset, query, T.DISJOINT))
        intersects = set(select(engine, dataset, query, T.INTERSECTS))
        assert disjoint | intersects == set(range(len(polygons)))
        assert not disjoint & intersects

    def test_query_stats_populated(self, engine, dataset):
        stats = engine.select(dataset, QUERIES[0], T.INSIDE, grid_order=GRID_ORDER).stats
        assert stats.resolved_if + stats.refined == stats.pairs > 0

    def test_filter_does_most_of_the_work(self, engine, dataset):
        stats = engine.select(dataset, QUERIES[0], T.INSIDE, grid_order=GRID_ORDER).stats
        if stats.pairs >= 10:
            assert stats.resolved_if >= stats.pairs * 0.4

    def test_count(self, engine, dataset):
        run = engine.select(dataset, QUERIES[0], T.INSIDE, grid_order=GRID_ORDER)
        assert len(run) == run.stats.relation_counts[T.INSIDE] > 0
        assert run.kind == "relate" and run.predicate is T.INSIDE

    def test_empty_dataset_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.select([], QUERIES[0], T.INSIDE)

    def test_query_identical_to_object(self, engine, dataset, polygons):
        target = polygons[0]
        got = select(engine, dataset, target, T.EQUALS)
        assert 0 in got
        want = brute_force(polygons, target, T.EQUALS)
        assert got == want


class TestInputs:
    """One selection, whatever form the dataset arrives in."""

    def test_wkt_index_and_list_agree_and_an_index_rasterises_the_query_only(
        self, tmp_path, polygons
    ):
        save_wkt_file(tmp_path / "d.wkt", polygons)
        build_dataset(tmp_path / "d.wkt", tmp_path / "d_idx", grid_order=11)
        query = QUERIES[1]
        obs.set_metrics(True)
        try:
            obs.reset_metrics()
            with Engine() as engine:
                from_index = engine.select(tmp_path / "d_idx", query, T.INTERSECTS)
            built = obs.get_registry().counter_values().get("repro_april_built_total", 0)
        finally:
            obs.reset_metrics()
            obs.set_metrics(False)
        assert built == 1
        with Engine() as engine:
            from_wkt = engine.select(tmp_path / "d.wkt", query, T.INTERSECTS)
            from_list = engine.select(polygons, query, T.INTERSECTS)
        assert from_index.matches == from_wkt.matches == from_list.matches
        assert [i for i, _ in from_list.matches] == brute_force(polygons, query, T.INTERSECTS)

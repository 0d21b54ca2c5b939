"""Connectivity soundness of selection queries over multipolygon data."""

import pytest

from repro.geometry import MultiPolygon, Polygon
from repro.store import Engine
from repro.topology import TopologicalRelation as T, relate
from repro.topology.de9im import relation_holds

DATA = [
    MultiPolygon([Polygon.box(0, 0, 10, 10), Polygon.box(20, 20, 30, 30)]),
    Polygon.box(5, 5, 25, 25),
    MultiPolygon([Polygon.box(0, 20, 10, 30), Polygon.box(20, 0, 30, 10)]),
    Polygon.box(40, 40, 50, 50),
]

#: The interleaved complement of DATA[0]: equal MBRs yet disjoint — the
#: case where connected-shape shortcuts would answer wrongly.
ADVERSARIAL_QUERY = MultiPolygon(
    [Polygon.box(0, 20, 10, 30), Polygon.box(20, 0, 30, 10)]
)


@pytest.fixture(scope="module")
def engine():
    with Engine() as engine:
        yield engine


def select(engine, predicate):
    run = engine.select(DATA, ADVERSARIAL_QUERY, predicate, grid_order=8)
    return [i for i, _ in run.matches]


@pytest.mark.parametrize(
    "predicate", [T.DISJOINT, T.INTERSECTS, T.EQUALS, T.MEETS, T.INSIDE, T.COVERED_BY]
)
def test_multipolygon_query_sound(engine, predicate):
    got = select(engine, predicate)
    want = sorted(
        i for i, g in enumerate(DATA) if relation_holds(relate(g, ADVERSARIAL_QUERY), predicate)
    )
    assert got == want


def test_equal_mbr_disjoint_multis_classified_disjoint(engine):
    disjoint = select(engine, T.DISJOINT)
    assert 0 in disjoint  # interleaved complement: disjoint despite equal MBRs
    assert 3 in disjoint  # outside the query's MBR window


def test_equal_multipolygon_found(engine):
    assert select(engine, T.EQUALS) == [2]

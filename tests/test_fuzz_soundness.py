"""Property-based end-to-end soundness fuzzing.

Generates random polygon soups with hypothesis and checks the central
guarantees on every MBR-passing pair:

1. every pipeline's find-relation answer equals the DE-9IM ground truth;
2. every intermediate-filter *definite* verdict is truthful (the oracle
   Fig. 5 flow, and the P+C tree, which must equal it);
3. every relate_p YES/NO verdict is truthful, for all 8 predicates;
4. the transpose/inverse symmetry of the whole stack.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.filters.mbr import classify_mbr_pair
from repro.filters.relate_filters import RelateVerdict, relate_filter
from repro.geometry import Box, Polygon
from repro.join.objects import SpatialObject
from repro.join.pipeline import PIPELINES
from repro.raster import RasterGrid
from repro.topology import TopologicalRelation as T, most_specific_relation, relate
from repro.topology.de9im import relation_holds
from tests.oracles.find_filters import intermediate_filter

GRID = RasterGrid(Box(0, 0, 64, 64), order=7)


@st.composite
def small_polygons(draw):
    """Random simple polygons: boxes, triangles and star blobs on a
    coarse integer-ish lattice (to provoke touching/shared boundaries)."""
    kind = draw(st.sampled_from(["box", "tri", "blob"]))
    x = draw(st.integers(2, 50))
    y = draw(st.integers(2, 50))
    if kind == "box":
        w = draw(st.integers(1, 12))
        h = draw(st.integers(1, 12))
        return Polygon.box(x, y, x + w, y + h)
    if kind == "tri":
        dx1 = draw(st.integers(2, 10))
        dy2 = draw(st.integers(2, 10))
        return Polygon([(x, y), (x + dx1, y), (x, y + dy2)])
    n = draw(st.integers(5, 14))
    radius = draw(st.integers(2, 8))
    phase = draw(st.floats(0, 2 * math.pi))
    pts = [
        (
            x + radius * (1 + 0.3 * math.sin(3 * a + phase)) * math.cos(a),
            y + radius * (1 + 0.3 * math.sin(3 * a + phase)) * math.sin(a),
        )
        for a in [2 * math.pi * k / n for k in range(n)]
    ]
    return Polygon(pts)


def objects_for(r, s):
    return (
        SpatialObject.from_polygon(0, r, GRID),
        SpatialObject.from_polygon(1, s, GRID),
    )


@given(small_polygons(), small_polygons())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pipelines_agree_with_ground_truth(r, s):
    truth = most_specific_relation(relate(r, s))
    r_obj, s_obj = objects_for(r, s)
    for pipeline in PIPELINES.values():
        assert pipeline.find_relation(r_obj, s_obj).relation is truth


@given(small_polygons(), small_polygons())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_intermediate_filter_definites_truthful(r, s):
    r_obj, s_obj = objects_for(r, s)
    case = classify_mbr_pair(r_obj.box, s_obj.box)
    verdict = intermediate_filter(case, r_obj.require_april(), s_obj.require_april())
    assert PIPELINES["P+C"].filter_pair(r_obj, s_obj).result == verdict
    truth = most_specific_relation(relate(r, s))
    if verdict.definite is not None:
        assert verdict.definite is truth
    else:
        assert truth in verdict.refine_candidates


@given(small_polygons(), small_polygons(), st.sampled_from(list(T)))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_relate_filters_truthful(r, s, predicate):
    r_obj, s_obj = objects_for(r, s)
    verdict = relate_filter(
        predicate, r_obj.box, s_obj.box, r_obj.require_april(), s_obj.require_april()
    )
    if verdict is RelateVerdict.UNKNOWN:
        return
    holds = relation_holds(relate(r, s), predicate)
    assert (verdict is RelateVerdict.YES) == holds


@given(small_polygons(), small_polygons())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_relate_symmetry(r, s):
    assert relate(r, s).transposed() == relate(s, r)
    assert most_specific_relation(relate(r, s)).inverse is most_specific_relation(relate(s, r))


@given(small_polygons())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_self_relation_is_equals(p):
    assert most_specific_relation(relate(p, p)) is T.EQUALS
    r_obj, s_obj = objects_for(p, p)
    outcome = PIPELINES["P+C"].find_relation(r_obj, s_obj)
    assert outcome.relation is T.EQUALS

"""Tests for the Fig. 5 intermediate filters (IFEquals/IFInside/...).

Soundness contract: whenever a filter returns a *definite* relation, it
must equal the ground truth from the DE-9IM engine; whenever it returns
refinement candidates, the ground-truth relation must be among them.

Each flow is run twice on the same lists: as the per-pair oracle
(``tests/oracles/find_filters.py``) and as the product's tree
(:mod:`repro.filters.intermediate`), which must reach the same result;
the dispatcher's checks run the P+C tree of :data:`PIPELINES` too.
"""

import math

import numpy as np
import pytest

from repro.filters.intermediate import (
    IF_CONTAINS,
    IF_EQUALS,
    IF_INSIDE,
    IF_INTERSECTS,
    IFResult,
    leaves,
)
from repro.filters.mbr import MBRRelationship as M, classify_mbr_pair
from repro.filters.pair_bits import PairBits
from repro.filters.relate_filters import decide
from repro.geometry import Box, Polygon
from repro.join.objects import SpatialObject
from repro.join.pipeline import PIPELINES
from repro.raster import RasterGrid, build_april
from repro.raster.april import AprilColumns
from repro.topology import TopologicalRelation as T, most_specific_relation, relate
from tests.oracles import find_filters as oracle

GRID = RasterGrid(Box(0, 0, 64, 64), order=8)


def ap(poly):
    return build_april(poly, GRID)


def tree_result(tree, r, s) -> IFResult:
    """The result the product's ``tree`` reaches on the approximations
    ``r`` and ``s`` (a flow reads no MBR bit, so the boxes are moot)."""
    box, one = Box(0, 0, 1, 1), np.zeros(1, dtype=np.int64)
    bits = PairBits(
        AprilColumns.of([r], [box], [True]), AprilColumns.of([s], [box], [True]), one, one
    )
    found = leaves(tree)
    return found[decide(tree, bits, 1, {leaf: k for k, leaf in enumerate(found)})[0]].result


def _checked(flow, tree):
    """The oracle ``flow``, asserting that ``tree`` agrees on each call."""

    def run(r, s):
        result = flow(r, s)
        assert tree_result(tree, r, s) == result
        return result

    return run


if_equals = _checked(oracle.if_equals, IF_EQUALS)
if_inside = _checked(oracle.if_inside, IF_INSIDE)
if_contains = _checked(oracle.if_contains, IF_CONTAINS)
if_intersects = _checked(oracle.if_intersects, IF_INTERSECTS)


intermediate_filter = oracle.intermediate_filter


def pc_result(r, s) -> IFResult:
    """The P+C tree's result on two polygons."""
    r_obj, s_obj = (SpatialObject.from_polygon(k, p, GRID) for k, p in enumerate((r, s)))
    return PIPELINES["P+C"].filter_pair(r_obj, s_obj).result


def truth(r, s):
    return most_specific_relation(relate(r, s))


def check_sound(result: IFResult, r, s):
    actual = truth(r, s)
    if result.definite is not None:
        assert result.definite is actual, (result.definite, actual)
    else:
        assert actual in result.refine_candidates, (actual, result.refine_candidates)


class TestIFResult:
    def test_requires_exactly_one_field(self):
        with pytest.raises(ValueError):
            IFResult()
        with pytest.raises(ValueError):
            IFResult(definite=T.DISJOINT, refine_candidates=(T.MEETS,))

    def test_needs_refinement(self):
        assert not IFResult(definite=T.DISJOINT).needs_refinement
        assert IFResult(refine_candidates=(T.MEETS,)).needs_refinement


class TestIFEquals:
    def test_equal_polygons_forwarded_to_refinement(self):
        r = Polygon.box(10, 10, 20, 20)
        s = Polygon.box(10, 10, 20, 20)
        res = if_equals(ap(r), ap(s))
        assert res.needs_refinement
        assert T.EQUALS in res.refine_candidates
        check_sound(res, r, s)

    def test_covered_by_same_mbr(self):
        # Same MBR; r is s minus a bite out of the middle of one side
        # region: use a polygon with a notch so C lists differ.
        s = Polygon.box(10, 10, 30, 30)
        r = Polygon(
            [(10, 10), (30, 10), (30, 30), (10, 30), (10, 24), (16, 20), (10, 16)]
        )
        assert classify_mbr_pair(r.bbox, s.bbox) is M.EQUAL
        res = if_equals(ap(r), ap(s))
        check_sound(res, r, s)

    def test_diagonal_strips_same_mbr(self):
        # Two thin diagonal strips sharing an MBR but meeting only nearly.
        r = Polygon([(0, 0), (40, 36), (40, 40), (36, 40)])
        s = Polygon([(40, 0), (4, 40), (0, 40), (0, 36), (36, 0)])
        assert r.bbox == s.bbox
        res = if_equals(ap(r), ap(s))
        check_sound(res, r, s)

    def test_covers_same_mbr(self):
        r = Polygon.box(10, 10, 30, 30)
        s = Polygon([(10, 10), (30, 10), (30, 30), (10, 30), (10, 24), (16, 20), (10, 16)])
        res = if_equals(ap(r), ap(s))
        check_sound(res, r, s)


class TestIFInside:
    def test_disjoint_definite(self):
        r = Polygon.box(20, 20, 24, 24)
        s = Polygon(
            [(10, 10), (40, 10), (40, 40), (10, 40)], [[(14, 14), (36, 14), (36, 36), (14, 36)]]
        )
        # r sits in s's hole; MBR(r) inside MBR(s).
        assert classify_mbr_pair(r.bbox, s.bbox) is M.R_INSIDE_S
        res = if_inside(ap(r), ap(s))
        assert res.definite is T.DISJOINT
        check_sound(res, r, s)

    def test_inside_definite(self):
        r = Polygon.box(20, 20, 30, 30)
        s = Polygon.box(10, 10, 40, 40)
        res = if_inside(ap(r), ap(s))
        assert res.definite is T.INSIDE
        check_sound(res, r, s)

    def test_covered_by_needs_refinement(self):
        r = Polygon.box(10, 20, 30, 30)  # touches s's left edge
        s = Polygon.box(10, 10, 40, 40)
        assert classify_mbr_pair(r.bbox, s.bbox) is M.R_INSIDE_S
        res = if_inside(ap(r), ap(s))
        check_sound(res, r, s)

    def test_partial_overlap_intersects_definite(self):
        # MBR(r) inside MBR(s) but r pokes out of s itself.
        s = Polygon([(10, 10), (40, 10), (40, 40)])  # lower-right triangle
        r = Polygon.box(15, 15, 25, 25)  # crosses the hypotenuse
        assert classify_mbr_pair(r.bbox, s.bbox) is M.R_INSIDE_S
        res = if_inside(ap(r), ap(s))
        assert res.definite is T.INTERSECTS
        check_sound(res, r, s)

    def test_meets_needs_refinement(self):
        s = Polygon([(10, 10), (40, 10), (40, 40)])
        r = Polygon([(20, 15), (30, 15), (30, 5), (20, 5)])  # unclear from rasters
        if classify_mbr_pair(r.bbox, s.bbox) is M.R_INSIDE_S:
            res = if_inside(ap(r), ap(s))
            check_sound(res, r, s)

    def test_thin_object_no_p_cells(self):
        r = Polygon([(20, 20), (20.2, 20.1), (20.1, 20.3)])  # sub-cell sliver
        s = Polygon.box(10, 10, 40, 40)
        res = if_inside(ap(r), ap(s))
        check_sound(res, r, s)


class TestIFContains:
    def test_mirror_of_inside(self):
        r = Polygon.box(10, 10, 40, 40)
        s = Polygon.box(20, 20, 30, 30)
        res = if_contains(ap(r), ap(s))
        assert res.definite is T.CONTAINS
        check_sound(res, r, s)

    def test_disjoint_definite(self):
        r = Polygon(
            [(10, 10), (40, 10), (40, 40), (10, 40)], [[(14, 14), (36, 14), (36, 36), (14, 36)]]
        )
        s = Polygon.box(20, 20, 24, 24)
        res = if_contains(ap(r), ap(s))
        assert res.definite is T.DISJOINT

    def test_covers_refinement_candidates_mirrored(self):
        r = Polygon.box(10, 10, 40, 40)
        s = Polygon.box(10, 20, 30, 30)
        res = if_contains(ap(r), ap(s))
        check_sound(res, r, s)
        if res.needs_refinement:
            assert all(c in (T.DISJOINT, T.CONTAINS, T.COVERS, T.MEETS, T.INTERSECTS)
                       for c in res.refine_candidates)


class TestIFIntersects:
    def test_disjoint_definite(self):
        r = Polygon([(10, 10), (30, 10), (10, 30)])
        s = Polygon([(28, 28), (50, 28), (50, 46)])
        assert classify_mbr_pair(r.bbox, s.bbox) is M.OVERLAP
        res = if_intersects(ap(r), ap(s))
        assert res.definite is T.DISJOINT

    def test_intersects_definite(self):
        r = Polygon.box(10, 10, 30, 30)
        s = Polygon.box(20, 20, 40, 40)
        res = if_intersects(ap(r), ap(s))
        assert res.definite is T.INTERSECTS
        check_sound(res, r, s)

    def test_meets_needs_refinement(self):
        r = Polygon.box(10, 10, 30, 30)
        s = Polygon.box(30, 10, 50, 30)  # shares edge x=30
        res = if_intersects(ap(r), ap(s))
        assert res.needs_refinement
        assert T.MEETS in res.refine_candidates
        check_sound(res, r, s)


class TestDispatcher:
    def test_mbr_disjoint(self):
        res = intermediate_filter(M.DISJOINT, None, None)
        assert res.definite is T.DISJOINT
        # The tree decides it from the MBRs alone: no lists needed.
        far = SpatialObject.from_polygon(0, Polygon.box(0, 0, 5, 5)), SpatialObject.from_polygon(
            1, Polygon.box(20, 20, 30, 30)
        )
        assert PIPELINES["P+C"].filter_pair(*far).result == res

    def test_mbr_cross(self):
        res = intermediate_filter(M.CROSS, None, None)
        assert res.definite is T.INTERSECTS
        cross = SpatialObject.from_polygon(0, Polygon.box(20, 5, 25, 55)), SpatialObject.from_polygon(
            1, Polygon.box(5, 20, 55, 25)
        )
        assert PIPELINES["P+C"].filter_pair(*cross).result == res

    def test_cross_pair_end_to_end(self):
        tall = Polygon.box(20, 5, 25, 55)
        wide = Polygon.box(5, 20, 55, 25)
        case = classify_mbr_pair(tall.bbox, wide.bbox)
        assert case is M.CROSS
        res = intermediate_filter(case, ap(tall), ap(wide))
        assert res.definite is T.INTERSECTS
        assert pc_result(tall, wide) == res
        assert truth(tall, wide) is T.INTERSECTS

    @pytest.mark.parametrize(
        "case",
        [M.EQUAL, M.R_INSIDE_S, M.R_CONTAINS_S, M.OVERLAP],
    )
    def test_dispatch_reaches_correct_filter(self, case):
        geoms = {
            M.EQUAL: (Polygon.box(10, 10, 20, 20), Polygon.box(10, 10, 20, 20)),
            M.R_INSIDE_S: (Polygon.box(12, 12, 18, 18), Polygon.box(10, 10, 20, 20)),
            M.R_CONTAINS_S: (Polygon.box(10, 10, 20, 20), Polygon.box(12, 12, 18, 18)),
            M.OVERLAP: (Polygon.box(10, 10, 20, 20), Polygon.box(15, 15, 25, 25)),
        }
        r, s = geoms[case]
        assert classify_mbr_pair(r.bbox, s.bbox) is case
        res = intermediate_filter(case, ap(r), ap(s))
        assert pc_result(r, s) == res
        check_sound(res, r, s)


class TestGridMismatch:
    def test_incompatible_grids_rejected(self):
        other = RasterGrid(Box(0, 0, 64, 64), order=7)
        r = build_april(Polygon.box(10, 10, 20, 20), GRID)
        s = build_april(Polygon.box(10, 10, 20, 20), other)
        with pytest.raises(ValueError):
            if_equals(r, s)
        with pytest.raises(ValueError):
            tree_result(IF_EQUALS, r, s)

"""Unit tests for the boundary/boundary contacts of the DE-9IM kernel:
the ``BB`` cell and the cut points of :func:`edge_contacts`."""

import numpy as np

from repro.geometry import Polygon
from repro.geometry.columns import GeometryColumns
from repro.topology.kernel import OVERLAP, EdgeArrays, edge_contacts
from repro.topology.relate import relate_details


def contacts(r, s):
    """Every contact of ``r``'s edges with ``s``'s (one pair)."""
    columns = GeometryColumns.from_geometries([r, s])
    return edge_contacts(
        EdgeArrays.of_geometries(columns, np.array([0])),
        EdgeArrays.of_geometries(columns, np.array([1])),
    )


def points(result, side):
    _, xs, ys = result.cuts(side)
    return set(zip(xs.tolist(), ys.tolist()))


def contact(r, s):
    return relate_details(r, s).matrix.BB


class TestContactFlag:
    def test_disjoint_no_contact(self):
        a = Polygon.box(0, 0, 1, 1)
        b = Polygon.box(5, 5, 6, 6)
        assert not contact(a, b)

    def test_nested_no_contact(self):
        a = Polygon.box(0, 0, 10, 10)
        b = Polygon.box(3, 3, 6, 6)
        assert not contact(a, b)

    def test_crossing_contact(self):
        a = Polygon.box(0, 0, 10, 10)
        b = Polygon.box(5, 5, 15, 15)
        assert contact(a, b)

    def test_corner_touch_contact(self):
        a = Polygon.box(0, 0, 10, 10)
        b = Polygon.box(10, 10, 20, 20)
        assert contact(a, b)

    def test_shared_edge_contact(self):
        a = Polygon.box(0, 0, 10, 10)
        b = Polygon.box(10, 0, 20, 10)
        assert contact(a, b)
        assert relate_details(a, b).boundary_overlap
        assert (contacts(a, b).kind == OVERLAP).any()


class TestCuts:
    def test_crossing_records_cuts_on_both(self):
        a = Polygon.box(0, 0, 10, 10)
        b = Polygon.box(5, -5, 7, 5)  # crosses a's bottom edge twice
        res = contacts(a, b)
        r_points, s_points = points(res, "r"), points(res, "s")
        assert (5.0, 0.0) in r_points and (7.0, 0.0) in r_points
        assert (5.0, 0.0) in s_points and (7.0, 0.0) in s_points

    def test_x_cross_cut_point(self):
        a = Polygon([(0, 0), (10, 0), (10, 2), (0, 2)])
        b = Polygon([(4, -3), (6, -3), (6, 5), (4, 5)])
        r_points = points(contacts(a, b), "r")
        assert (4.0, 0.0) in r_points and (6.0, 0.0) in r_points
        assert (4.0, 2.0) in r_points and (6.0, 2.0) in r_points

    def test_overlap_records_interval_endpoints(self):
        a = Polygon.box(0, 0, 10, 10)
        b = Polygon.box(10, 3, 20, 7)
        _, px, py, qx, qy = contacts(a, b).overlaps("r")
        assert len(px) == 1
        assert {(px[0], py[0]), (qx[0], qy[0])} == {(10.0, 3.0), (10.0, 7.0)}

    def test_hole_edges_participate(self):
        donut = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)], [[(2, 2), (8, 2), (8, 8), (2, 8)]]
        )
        bar = Polygon.box(1, 4, 9, 6)  # crosses the hole ring on both sides
        assert contact(donut, bar)
        r_points = points(contacts(donut, bar), "r")
        assert (2.0, 4.0) in r_points and (8.0, 6.0) in r_points

    def test_mbr_clip_prunes_far_edges(self):
        # Polygons whose MBRs overlap in a small window: the contact is
        # found among the few edges that reach it.
        a = Polygon.box(0, 0, 100, 100)
        b = Polygon.box(99, 99, 200, 200)
        assert contact(a, b)  # they cross near (99..100, 99..100)

"""Property test: the kernel finds the same contacts as brute force."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Polygon
from repro.geometry.segment import segment_intersection
from repro.topology.relate import relate_details
from tests.test_topology_sweep import contacts, points


def boxes_polygons():
    return st.builds(
        lambda x, y, w, h: Polygon.box(x, y, x + w, y + h),
        st.integers(0, 30),
        st.integers(0, 30),
        st.integers(1, 12),
        st.integers(1, 12),
    )


def triangles():
    return st.builds(
        lambda x, y, dx, dy: Polygon([(x, y), (x + dx, y), (x, y + dy)]),
        st.integers(0, 30),
        st.integers(0, 30),
        st.integers(1, 12),
        st.integers(1, 12),
    )


def brute_force_contact(r, s):
    for a1, a2 in r.edges():
        for b1, b2 in s.edges():
            if segment_intersection(a1, a2, b1, b2):
                return True
    return False


def brute_force_points(r, s):
    points = set()
    for a1, a2 in r.edges():
        for b1, b2 in s.edges():
            inter = segment_intersection(a1, a2, b1, b2)
            points.update(inter.points)
    return points


class TestSweepMatchesBruteForce:
    @given(boxes_polygons() | triangles(), boxes_polygons() | triangles())
    @settings(max_examples=200, deadline=None)
    def test_contact_flag(self, r, s):
        assert relate_details(r, s).matrix.BB == brute_force_contact(r, s)

    @given(boxes_polygons() | triangles(), boxes_polygons() | triangles())
    @settings(max_examples=120, deadline=None)
    def test_cut_points_superset_of_crossings(self, r, s):
        """Every brute-force intersection point appears among the cuts
        recorded for r (overlap ends included, no point missed)."""
        recorded = points(contacts(r, s), "r")
        for point in brute_force_points(r, s):
            assert point in recorded

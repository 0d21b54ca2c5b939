"""Tests for the MBR intersection join (the filter-step producer)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box
from repro.join.mbr_join import plane_sweep_mbr_join

from tests.oracles.mbr_join import brute_force_mbr_join


def boxes_strategy(n_max=30):
    return st.lists(
        st.builds(
            lambda x, y, w, h: Box(x, y, x + w, y + h),
            st.integers(0, 50),
            st.integers(0, 50),
            st.integers(0, 15),
            st.integers(0, 15),
        ),
        max_size=n_max,
    )


class TestPlaneSweep:
    def test_empty_inputs(self):
        assert plane_sweep_mbr_join([], []) == []
        assert plane_sweep_mbr_join([Box(0, 0, 1, 1)], []) == []

    def test_single_pair(self):
        assert plane_sweep_mbr_join([Box(0, 0, 2, 2)], [Box(1, 1, 3, 3)]) == [(0, 0)]

    def test_touching_boxes_are_pairs(self):
        got = plane_sweep_mbr_join([Box(0, 0, 2, 2)], [Box(2, 0, 4, 2)])
        assert got == [(0, 0)]

    def test_disjoint(self):
        assert plane_sweep_mbr_join([Box(0, 0, 1, 1)], [Box(5, 5, 6, 6)]) == []

    def test_same_xmin(self):
        got = plane_sweep_mbr_join([Box(0, 0, 2, 2)], [Box(0, 1, 5, 5)])
        assert got == [(0, 0)]

    def test_all_pairs_grid(self):
        r = [Box(i, 0, i + 2, 2) for i in range(0, 10, 2)]
        s = [Box(i + 1, 1, i + 3, 3) for i in range(0, 10, 2)]
        got = sorted(plane_sweep_mbr_join(r, s))
        assert got == sorted(brute_force_mbr_join(r, s))

    @given(boxes_strategy(), boxes_strategy())
    @settings(max_examples=120)
    def test_matches_bruteforce(self, r, s):
        assert sorted(plane_sweep_mbr_join(r, s)) == sorted(brute_force_mbr_join(r, s))


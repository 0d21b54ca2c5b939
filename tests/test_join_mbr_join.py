"""Tests for the MBR intersection join (the filter-step producer) and
the tile arithmetic the disk-partitioned join builds on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box
from repro.join.mbr_join import (
    TileLayout,
    brute_force_mbr_join,
    plane_sweep_mbr_join,
)


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


def shared_tiles_owning(layout, r_box, s_box):
    """The tiles both boxes are replicated to that claim the pair: a
    tile-partitioned join reports the pair once iff this is one tile."""
    rx0, ry0, rx1, ry1 = r_span = layout.tile_range(r_box)
    sx0, sy0, sx1, sy1 = s_span = layout.tile_range(s_box)
    owner = layout.owner_tile(r_span, s_span)
    return [
        (tx, ty)
        for tx in range(max(rx0, sx0), min(rx1, sx1) + 1)
        for ty in range(max(ry0, sy0), min(ry1, sy1) + 1)
        if (tx, ty) == owner
    ]


class TestGridPartitioned:
    def test_empty(self):
        # A zero-area universe (every box the same point) has no tile
        # width to divide by; everything falls in tile (0, 0).
        layout = TileLayout(Box(3, 3, 3, 3), 4)
        point = Box(3, 3, 3, 3)
        assert layout.tile_range(point) == (0, 0, 0, 0)
        assert shared_tiles_owning(layout, point, point) == [(0, 0)]

    def test_no_duplicates_for_spanning_boxes(self):
        # One huge box overlapping many tiles must be owned once.
        layout = TileLayout(Box(0, 0, 100, 100), 8)
        r, s = Box(0, 0, 100, 100), Box(10, 10, 90, 90)
        assert layout.tile_range(r) == (0, 0, 7, 7)
        assert shared_tiles_owning(layout, r, s) == [(0, 0)]

    @given(boxes_strategy(), boxes_strategy(), st.integers(1, 6))
    @settings(max_examples=120)
    def test_matches_bruteforce(self, r, s, tiles):
        if not r or not s:
            return
        layout = TileLayout(Box.union_all(r + s), tiles)
        for i, j in brute_force_mbr_join(r, s):
            assert len(shared_tiles_owning(layout, r[i], s[j])) == 1

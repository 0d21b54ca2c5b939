"""Unit and property tests for IntervalList and its merge-join relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raster.intervals import EMPTY_INTERVALS, IntervalList


def cell_sets(max_cell=60):
    return st.sets(st.integers(0, max_cell), max_size=25)


class TestConstruction:
    def test_empty(self):
        assert len(IntervalList()) == 0
        assert not IntervalList()
        assert IntervalList().cell_count == 0

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            IntervalList([(3, 3)])

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            IntervalList([(5, 2)])

    def test_sorts(self):
        il = IntervalList([(10, 12), (0, 2)])
        assert list(il) == [(0, 2), (10, 12)]

    def test_coalesces_adjacent(self):
        assert list(IntervalList([(1, 3), (3, 5)])) == [(1, 5)]

    def test_coalesces_overlapping(self):
        assert list(IntervalList([(1, 6), (4, 9)])) == [(1, 9)]

    def test_from_cells(self):
        il = IntervalList.from_cells([5, 1, 2, 3, 9, 10])
        assert list(il) == [(1, 4), (5, 6), (9, 11)]

    def test_from_cells_duplicates(self):
        il = IntervalList.from_cells([2, 2, 2])
        assert list(il) == [(2, 3)]

    def test_from_cells_empty(self):
        assert IntervalList.from_cells([]) is EMPTY_INTERVALS

    @given(st.lists(st.integers(0, 80), max_size=40))
    def test_from_cells_unsorted_with_repeats_equals_one_interval_per_cell(self, cells):
        got = IntervalList.from_cells(np.asarray(cells, dtype=np.int64))
        ref = IntervalList([(c, c + 1) for c in cells])
        assert np.array_equal(got.starts, ref.starts)
        assert np.array_equal(got.ends, ref.ends)
        assert got.starts.dtype == got.ends.dtype == np.int64

    @given(cell_sets())
    def test_from_cells_roundtrip(self, cells):
        il = IntervalList.from_cells(cells)
        assert set(il.iter_cells()) == cells
        assert il.cell_count == len(cells)
        # Invariant: sorted, disjoint, non-adjacent.
        items = list(il)
        for (s1, e1), (s2, e2) in zip(items, items[1:]):
            assert e1 < s2


class TestQueries:
    def test_covers_cell(self):
        il = IntervalList([(2, 5), (9, 10)])
        assert il.covers_cell(2) and il.covers_cell(4) and il.covers_cell(9)
        assert not il.covers_cell(5) and not il.covers_cell(0) and not il.covers_cell(10)

    def test_nbytes(self):
        assert IntervalList([(0, 1), (5, 9)]).nbytes == 32

    def test_eq_and_hash(self):
        a = IntervalList([(1, 5)])
        b = IntervalList([(1, 3), (3, 5)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != IntervalList([(1, 4)])


class TestRelations:
    def test_overlap_basic(self):
        assert IntervalList([(0, 5)]).overlaps(IntervalList([(4, 9)]))

    def test_overlap_adjacent_halfopen(self):
        # [0,5) and [5,9) share no cell.
        assert not IntervalList([(0, 5)]).overlaps(IntervalList([(5, 9)]))

    def test_overlap_nested(self):
        assert IntervalList([(0, 10)]).overlaps(IntervalList([(3, 4)]))

    def test_overlap_empty(self):
        assert not EMPTY_INTERVALS.overlaps(IntervalList([(0, 5)]))
        assert not IntervalList([(0, 5)]).overlaps(EMPTY_INTERVALS)

    def test_match(self):
        assert IntervalList([(1, 4), (8, 9)]).matches(IntervalList([(1, 4), (8, 9)]))
        assert not IntervalList([(1, 4)]).matches(IntervalList([(1, 5)]))

    def test_inside_basic(self):
        x = IntervalList([(2, 4), (10, 12)])
        y = IntervalList([(0, 5), (9, 20)])
        assert x.inside(y)
        assert not y.inside(x)
        assert y.contains(x)

    def test_inside_spanning_gap_fails(self):
        x = IntervalList([(2, 8)])
        y = IntervalList([(0, 5), (6, 10)])  # gap at [5,6)
        assert not x.inside(y)

    def test_inside_empty_vacuous(self):
        assert EMPTY_INTERVALS.inside(IntervalList([(0, 1)]))
        assert EMPTY_INTERVALS.inside(EMPTY_INTERVALS)
        assert not IntervalList([(0, 1)]).inside(EMPTY_INTERVALS)

    def test_inside_exact_fit(self):
        assert IntervalList([(3, 7)]).inside(IntervalList([(3, 7)]))

    @given(cell_sets(), cell_sets())
    @settings(max_examples=150)
    def test_overlap_is_set_intersection(self, a, b):
        x = IntervalList.from_cells(a)
        y = IntervalList.from_cells(b)
        assert x.overlaps(y) == bool(a & b)
        assert x.overlaps(y) == y.overlaps(x)

    @given(cell_sets(), cell_sets())
    @settings(max_examples=150)
    def test_inside_matches_bruteforce(self, a, b):
        x = IntervalList.from_cells(a)
        y = IntervalList.from_cells(b)
        # 'X inside Y' over coalesced lists: every x-interval within one
        # y-interval. Brute force: a subset of b AND no x-interval spans
        # a hole of b — for coalesced lists this is exactly: every cell
        # of every x-interval is in b, and the cells of each x-interval
        # sit in one contiguous b-run, which subset already implies.
        expected = a <= b
        assert x.inside(y) == expected

    @given(cell_sets(), cell_sets())
    @settings(max_examples=100)
    def test_match_is_set_equality(self, a, b):
        assert IntervalList.from_cells(a).matches(IntervalList.from_cells(b)) == (a == b)


class TestSetOperations:
    @given(cell_sets(), cell_sets())
    @settings(max_examples=150)
    def test_intersection_bruteforce(self, a, b):
        got = IntervalList.from_cells(a).intersection(IntervalList.from_cells(b))
        assert set(got.iter_cells()) == (a & b)

    @given(cell_sets(), cell_sets())
    @settings(max_examples=150)
    def test_union_bruteforce(self, a, b):
        got = IntervalList.from_cells(a).union(IntervalList.from_cells(b))
        assert set(got.iter_cells()) == (a | b)

    @given(cell_sets(), cell_sets())
    @settings(max_examples=150)
    def test_difference_bruteforce(self, a, b):
        got = IntervalList.from_cells(a).difference(IntervalList.from_cells(b))
        assert set(got.iter_cells()) == (a - b)

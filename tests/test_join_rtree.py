"""Tests for the STR-packed R-tree."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box
from repro.join.rtree import RTree


def boxes_strategy(max_size=60):
    return st.lists(
        st.builds(
            lambda x, y, w, h: Box(x, y, x + w, y + h),
            st.integers(0, 80),
            st.integers(0, 80),
            st.integers(0, 20),
            st.integers(0, 20),
        ),
        max_size=max_size,
    )


def grid_boxes(n_side, size=2, gap=3):
    return [
        Box(i * (size + gap), j * (size + gap), i * (size + gap) + size, j * (size + gap) + size)
        for i in range(n_side)
        for j in range(n_side)
    ]


class TestConstruction:
    def test_empty(self):
        tree = RTree([])
        assert tree.size == 0
        assert tree.height() == 0
        assert tree.query(Box(0, 0, 100, 100)) == []
        assert tree.nearest_mbr(0, 0) is None

    def test_single(self):
        tree = RTree([Box(1, 1, 2, 2)])
        assert tree.height() == 1
        assert tree.query(Box(0, 0, 3, 3)) == [0]

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            RTree([Box(0, 0, 1, 1)], fanout=1)

    def test_height_grows_logarithmically(self):
        tree = RTree(grid_boxes(20), fanout=8)  # 400 boxes
        # STR packing is not perfectly tight, but the height must stay
        # logarithmic: 400 entries at fanout 8 needs >= 3 levels and a
        # packed build should not need more than 5.
        assert 3 <= tree.height() <= 5

    def test_iter_boxes_covers_all(self):
        boxes = grid_boxes(7)
        tree = RTree(boxes)
        seen = {idx for _, idx in tree.iter_boxes()}
        assert seen == set(range(len(boxes)))


class TestQuery:
    def test_window_hits(self):
        boxes = grid_boxes(10, size=2, gap=3)  # cells at 0,5,10,...
        tree = RTree(boxes)
        got = sorted(tree.query(Box(0, 0, 7, 7)))
        want = sorted(
            i for i, b in enumerate(boxes) if b.intersects(Box(0, 0, 7, 7))
        )
        assert got == want

    def test_window_miss(self):
        tree = RTree(grid_boxes(5))
        assert tree.query(Box(1000, 1000, 1001, 1001)) == []

    def test_query_contained_in(self):
        boxes = grid_boxes(6)
        tree = RTree(boxes)
        window = Box(0, 0, 12, 12)
        got = sorted(tree.query_contained_in(window))
        want = sorted(i for i, b in enumerate(boxes) if window.contains_box(b))
        assert got == want
        assert got  # non-trivial

    @given(boxes_strategy(), st.tuples(st.integers(0, 80), st.integers(0, 80),
                                       st.integers(1, 30), st.integers(1, 30)))
    @settings(max_examples=120)
    def test_query_matches_bruteforce(self, boxes, window_spec):
        x, y, w, h = window_spec
        window = Box(x, y, x + w, y + h)
        tree = RTree(boxes, fanout=4)
        got = sorted(tree.query(window))
        want = sorted(i for i, b in enumerate(boxes) if b.intersects(window))
        assert got == want


class TestNearest:
    def test_point_inside_a_box(self):
        boxes = grid_boxes(4)
        tree = RTree(boxes)
        assert tree.nearest_mbr(1.0, 1.0) == 0

    def test_nearest_between_boxes(self):
        boxes = [Box(0, 0, 1, 1), Box(10, 0, 11, 1)]
        tree = RTree(boxes)
        assert tree.nearest_mbr(3, 0.5) == 0
        assert tree.nearest_mbr(8, 0.5) == 1

    @given(boxes_strategy(30), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=80)
    def test_nearest_matches_bruteforce_distance(self, boxes, x, y):
        if not boxes:
            return
        tree = RTree(boxes, fanout=4)
        got = tree.nearest_mbr(x, y)

        def dist(b):
            dx = max(b.xmin - x, 0, x - b.xmax)
            dy = max(b.ymin - y, 0, y - b.ymax)
            return math.hypot(dx, dy)

        assert got is not None
        assert dist(boxes[got]) == min(dist(b) for b in boxes)

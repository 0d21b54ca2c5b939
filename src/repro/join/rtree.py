"""An in-memory R-tree over MBRs (STR bulk loading).

The filter step of a topology join needs two access paths: a *join*
between two MBR collections (:mod:`repro.join.mbr_join`) and a
*selection* — all objects whose MBR intersects a query window, used by
topological selection queries (Sec. 1's "topological relations as
predicates in selection queries"). This module is the selection path:
the classic Sort-Tile-Recursive (STR) packed R-tree [Leutenegger et
al.] with:

- :meth:`RTree.query` — window intersection selection;
- :meth:`RTree.nearest_mbr` — MBR-distance nearest neighbour (utility
  for data exploration; not used by the paper's pipeline).

Packed trees are static: build once over a dataset, query many times —
exactly the paper's workload pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.geometry.box import Box

DEFAULT_FANOUT = 16


@dataclass
class _Node:
    box: Box
    #: Leaf nodes carry (box, object index) entries; inner nodes carry children.
    children: list["_Node"]
    entries: list[tuple[Box, int]]

    @property
    def is_leaf(self) -> bool:
        return not self.children


class RTree:
    """A static STR-packed R-tree over a sequence of MBRs."""

    def __init__(self, boxes: Sequence[Box], fanout: int = DEFAULT_FANOUT) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self.fanout = fanout
        self.size = len(boxes)
        self._root = self._bulk_load(list(enumerate(boxes))) if boxes else None

    # ------------------------------------------------------------------
    # construction (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    def _bulk_load(self, items: list[tuple[int, Box]]) -> _Node:
        leaves = self._pack_leaves(items)
        level = leaves
        while len(level) > 1:
            level = self._pack_inner(level)
        return level[0]

    def _pack_leaves(self, items: list[tuple[int, Box]]) -> list[_Node]:
        n = len(items)
        leaf_count = math.ceil(n / self.fanout)
        slices = math.ceil(math.sqrt(leaf_count))
        items = sorted(items, key=lambda it: it[1].center[0])
        per_slice = math.ceil(n / slices)

        leaves: list[_Node] = []
        for s in range(0, n, per_slice):
            strip = sorted(items[s : s + per_slice], key=lambda it: it[1].center[1])
            for k in range(0, len(strip), self.fanout):
                chunk = strip[k : k + self.fanout]
                entries = [(box, index) for index, box in chunk]
                leaves.append(
                    _Node(
                        box=Box.union_all([box for box, _ in entries]),
                        children=[],
                        entries=entries,
                    )
                )
        return leaves

    def _pack_inner(self, nodes: list[_Node]) -> list[_Node]:
        n = len(nodes)
        node_count = math.ceil(n / self.fanout)
        slices = math.ceil(math.sqrt(node_count))
        nodes = sorted(nodes, key=lambda node: node.box.center[0])
        per_slice = math.ceil(n / slices)

        parents: list[_Node] = []
        for s in range(0, n, per_slice):
            strip = sorted(nodes[s : s + per_slice], key=lambda node: node.box.center[1])
            for k in range(0, len(strip), self.fanout):
                chunk = strip[k : k + self.fanout]
                parents.append(
                    _Node(
                        box=Box.union_all([c.box for c in chunk]),
                        children=chunk,
                        entries=[],
                    )
                )
        return parents

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, window: Box) -> list[int]:
        """Indices of all objects whose MBR intersects ``window``."""
        if self._root is None:
            return []
        result: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.box.intersects(window):
                continue
            if node.is_leaf:
                result.extend(
                    index for box, index in node.entries if box.intersects(window)
                )
            else:
                stack.extend(node.children)
        return result

    def query_contained_in(self, window: Box) -> list[int]:
        """Indices of objects whose MBR lies entirely inside ``window``."""
        if self._root is None:
            return []
        result: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.box.intersects(window):
                continue
            if node.is_leaf:
                result.extend(
                    index for box, index in node.entries if window.contains_box(box)
                )
            else:
                stack.extend(node.children)
        return result

    def nearest_mbr(self, x: float, y: float) -> int | None:
        """Index of the object whose MBR is nearest to point ``(x, y)``
        (best-first search over MBR distance; None for an empty tree)."""
        if self._root is None:
            return None
        import heapq

        counter = 0  # tie-breaker: heap entries are never compared by node
        heap: list[tuple[float, int, _Node | None, int]] = [
            (_point_box_distance(x, y, self._root.box), counter, self._root, -1)
        ]
        while heap:
            dist, _, node, index = heapq.heappop(heap)
            if node is None:
                return index
            if node.is_leaf:
                for box, obj_index in node.entries:
                    counter += 1
                    heapq.heappush(
                        heap, (_point_box_distance(x, y, box), counter, None, obj_index)
                    )
            else:
                for child in node.children:
                    counter += 1
                    heapq.heappush(
                        heap, (_point_box_distance(x, y, child.box), counter, child, -1)
                    )
        return None

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def height(self) -> int:
        """Tree height (0 for an empty tree, 1 for a single leaf)."""
        node = self._root
        if node is None:
            return 0
        h = 1
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def iter_boxes(self) -> Iterator[tuple[Box, int]]:
        """All (box, index) leaf entries (tree order)."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.children)


def _point_box_distance(x: float, y: float, box: Box) -> float:
    dx = max(box.xmin - x, 0.0, x - box.xmax)
    dy = max(box.ymin - y, 0.0, y - box.ymax)
    return math.hypot(dx, dy)


__all__ = ["RTree", "DEFAULT_FANOUT"]

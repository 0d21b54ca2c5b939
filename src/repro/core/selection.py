"""Topological selection queries.

Sec. 1 of the paper: "In spatial databases, topological relations are
often used as predicates in selection queries". This module provides
that access path: index a polygon dataset once, then answer queries of
the form *all objects o such that relate_p(o, Q)* for an ad-hoc query
polygon ``Q`` — using the same three-stage pipeline as the join
(R-tree MBR filter → APRIL relate_p filter → selective DE-9IM).
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from repro.filters.relate_filters import RelateVerdict, relate_filter
from repro.geometry.box import Box
from repro.geometry.polygon import Polygon
from repro.join.rtree import RTree
from repro.raster.april import AprilApproximation, build_april, build_april_many
from repro.raster.grid import RasterGrid
from repro.topology.de9im import TopologicalRelation, relation_holds
from repro.topology.relate import relate


class TopologySelection:
    """A topological-predicate selection index over one polygon dataset.

    Parameters
    ----------
    polygons:
        The dataset; result indices refer to this sequence.
    grid_order:
        Hilbert grid order. The grid covers the dataset extent with a
        margin so that typical query polygons fall inside it; queries
        reaching beyond the grid are still answered correctly (their
        approximations are clipped conservatively).
    margin_fraction:
        Extra dataspace margin around the dataset extent.
    """

    def __init__(
        self,
        polygons: Sequence[Polygon],
        grid_order: int = 11,
        fanout: int = 16,
        margin_fraction: float = 0.25,
    ) -> None:
        if not polygons:
            raise ValueError("cannot index an empty dataset")
        self.polygons = list(polygons)
        extent = Box.union_all([p.bbox for p in self.polygons])
        margin = margin_fraction * max(extent.width, extent.height, 1e-9)
        self.grid = RasterGrid(extent.expanded(margin), order=grid_order)
        self._fanout = fanout
        #: Filled by select(): how the last query's candidates resolved.
        self.last_query_stats: dict[str, int] = {}

    @cached_property
    def _rtree(self) -> RTree:
        return RTree([p.bbox for p in self.polygons], fanout=self._fanout)

    @cached_property
    def _approximations(self) -> list[AprilApproximation]:
        return build_april_many(self.polygons, self.grid)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def select(self, query: Polygon, predicate: TopologicalRelation) -> list[int]:
        """Indices of objects ``o`` for which ``predicate(o, query)`` holds.

        The object is the predicate's *first* argument: ``INSIDE``
        returns objects lying inside the query region, ``CONTAINS``
        returns objects containing it, etc.
        """
        query_april = build_april(query, self.grid)
        query_box = query.bbox

        if predicate is TopologicalRelation.DISJOINT:
            # Everything outside the MBR window is trivially disjoint.
            window_hits = set(self._rtree.query(query_box))
            result = [i for i in range(len(self.polygons)) if i not in window_hits]
            checked = sorted(window_hits)
        else:
            result = []
            checked = sorted(self._rtree.query(query_box))

        stats = {"candidates": len(checked), "filtered": 0, "refined": 0}
        query_connected = query.is_connected
        for i in checked:
            verdict = relate_filter(
                predicate,
                self.polygons[i].bbox,
                query_box,
                self._approximations[i],
                query_april,
                self.polygons[i].is_connected and query_connected,
            )
            if verdict is RelateVerdict.UNKNOWN:
                stats["refined"] += 1
                holds = relation_holds(relate(self.polygons[i], query), predicate)
            else:
                stats["filtered"] += 1
                holds = verdict is RelateVerdict.YES
            if holds:
                result.append(i)
        self.last_query_stats = stats
        return sorted(result)

    def count(self, query: Polygon, predicate: TopologicalRelation) -> int:
        """Number of objects satisfying the predicate (same pipeline)."""
        return len(self.select(query, predicate))


__all__ = ["TopologySelection"]

"""Spatial objects: a polygon plus its precomputed approximations.

The pipelines never want bare polygons — the whole point of the paper
is that most pairs are resolved from the MBR and the APRIL lists alone,
without touching exact geometry. :class:`SpatialObject` bundles the
three representations and defers the exact geometry until refinement
reads it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.geometry.box import Box
from repro.geometry.polygon import Polygon
from repro.raster.april import AprilApproximation, build_april, build_april_many
from repro.raster.grid import RasterGrid
from repro.topology.kernel import GeometrySet, RelateDetails, relate_indexed


class SpatialObject:
    """One dataset entity: id, exact geometry, MBR, APRIL approximation.

    ``is_connected`` is the one fact about the exact geometry the filters
    need for *every* candidate pair, so it is held beside the MBR; the
    geometry itself may be deferred (:meth:`deferred`) and is then looked
    up the first time :attr:`polygon` is read — by refinement, for the
    pairs the filters could not settle.
    """

    __slots__ = (
        "oid", "box", "april", "is_connected", "_polygon", "_geometries",
    )

    def __init__(
        self,
        oid: int,
        polygon: Polygon,
        box: Box,
        april: AprilApproximation | None = None,
    ) -> None:
        geometry = polygon  # a Polygon or a MultiPolygon, despite the name
        self._set(oid, box, april, geometry.is_connected, geometry, None)

    @classmethod
    def deferred(
        cls, oid: int, geometries: Sequence[Polygon], box: Box, is_connected: bool
    ) -> "SpatialObject":
        """Object ``oid`` of ``geometries``, which is only indexed when
        the polygon is first read (a
        :class:`~repro.store.columns.LazyGeometries` builds it then)."""
        obj = cls.__new__(cls)
        obj._set(oid, box, None, is_connected, None, geometries)
        return obj

    def _set(self, oid, box, april, is_connected, polygon, geometries) -> None:
        self.oid = oid
        self.box = box
        self.april = april
        self.is_connected: bool = is_connected
        self._polygon = polygon
        self._geometries = geometries

    @staticmethod
    def from_polygon(oid: int, polygon: Polygon, grid: RasterGrid | None = None) -> "SpatialObject":
        april = build_april(polygon, grid) if grid is not None else None
        return SpatialObject(oid=oid, polygon=polygon, box=polygon.bbox, april=april)

    @property
    def polygon(self) -> Polygon:
        polygon = self._polygon
        if polygon is None:
            polygon = self._polygon = self._geometries[self.oid]
        return polygon

    @property
    def num_vertices(self) -> int:
        return self.polygon.num_vertices

    def require_april(self) -> AprilApproximation:
        if self.april is None:
            raise ValueError(f"object {self.oid} has no APRIL approximation")
        return self.april

    def __repr__(self) -> str:
        return (
            f"SpatialObject(oid={self.oid!r}, box={self.box!r}, "
            f"april={self.april!r})"
        )


def make_objects(
    polygons: Iterable[Polygon],
    grid: RasterGrid | None = None,
) -> list[SpatialObject]:
    """Wrap a polygon dataset into spatial objects (preprocessing step)."""
    polygons = list(polygons)
    aprils = build_april_many(polygons, grid) if grid is not None else [None] * len(polygons)
    return [
        SpatialObject(oid=i, polygon=p, box=p.bbox, april=april)
        for i, (p, april) in enumerate(zip(polygons, aprils))
    ]


def relate_objects(
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
) -> list[RelateDetails]:
    """The DE-9IM details of every ``(r_objects[i], s_objects[j])`` pair
    of ``pairs``, refined as one batch."""
    r_set, r_idx = _geometry_set(r_objects, [i for i, _ in pairs])
    s_set, s_idx = _geometry_set(s_objects, [j for _, j in pairs])
    return relate_indexed(r_set, r_idx, s_set, s_idx)


def _geometry_set(
    objects: Sequence[SpatialObject], indices: Sequence[int]
) -> tuple[GeometrySet, np.ndarray]:
    """The geometries of ``objects[indices]`` and each one's index in
    them: the dataset's own columns when every object defers to the same
    columnar dataset (no polygon is built), otherwise the distinct
    objects' polygons, flattened once."""
    chosen = [objects[i] for i in indices]
    sources = {id(obj._geometries) for obj in chosen}
    source = chosen[0]._geometries if chosen else None
    if len(sources) == 1 and hasattr(source, "columns"):
        return GeometrySet.of(source), np.array([obj.oid for obj in chosen], dtype=np.int64)
    slot: dict[int, int] = {}
    polygons: list = []
    index = []
    for obj in chosen:
        k = slot.get(id(obj))
        if k is None:
            k = slot[id(obj)] = len(polygons)
            polygons.append(obj.polygon)
        index.append(k)
    return GeometrySet.of(polygons), np.array(index, dtype=np.int64)


__all__ = ["SpatialObject", "make_objects", "relate_objects"]

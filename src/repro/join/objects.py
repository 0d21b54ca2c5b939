"""Spatial objects: a polygon plus its precomputed approximations.

The pipelines never want bare polygons — the whole point of the paper
is that most pairs are resolved from the MBR and the APRIL lists alone,
without touching exact geometry. :class:`SpatialObject` bundles the
three representations and defers the exact geometry until refinement
reads it.

A whole dataset's object ``k`` defers to row ``k`` of one
:class:`~repro.raster.april.AprilColumns` store (its lists, box and
connectivity) and to geometry ``k`` of one
:class:`~repro.geometry.columns.GeometryColumns`. The filter gathers
from the store and refinement reads the columns, by object id.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.geometry.box import Box
from repro.geometry.columns import GeometryColumns
from repro.geometry.polygon import Polygon
from repro.raster.april import AprilApproximation, AprilColumns, build_april, build_april_many
from repro.raster.grid import RasterGrid
from repro.topology.kernel import GeometrySet, RelateDetails, relate_indexed


class SpatialObject:
    """One dataset entity: id, exact geometry, MBR, APRIL approximation.

    ``is_connected`` is the one fact about the exact geometry the filters
    need for *every* candidate pair, so it is held beside the MBR; the
    geometry itself may be deferred (:meth:`deferred`) and is then looked
    up the first time :attr:`polygon` is read — by refinement, for the
    pairs the filters could not settle. A deferred object's
    :attr:`april` is a view of its row of the store it defers to.
    """

    __slots__ = (
        "oid", "box", "is_connected", "store", "_april", "_polygon", "_geometries",
    )

    def __init__(
        self,
        oid: int,
        polygon: Polygon,
        box: Box,
        april: AprilApproximation | None = None,
    ) -> None:
        geometry = polygon  # a Polygon or a MultiPolygon, despite the name
        self._set(oid, box, april, None, geometry.is_connected, geometry, None)

    @classmethod
    def deferred(
        cls,
        oid: int,
        geometries: Sequence[Polygon],
        box: Box,
        is_connected: bool,
        store: AprilColumns,
    ) -> "SpatialObject":
        """Object ``oid`` of ``geometries`` and of ``store``: the
        geometry is only indexed when the polygon is first read (a
        :class:`~repro.store.columns.LazyGeometries` builds it then)."""
        obj = cls.__new__(cls)
        obj._set(oid, box, None, store, is_connected, None, geometries)
        return obj

    def _set(self, oid, box, april, store, is_connected, polygon, geometries) -> None:
        self.oid = oid
        self.box = box
        self._april = april
        #: The store whose row ``oid`` holds the object's filter facts, or
        #: ``None`` for an object built with its own lists.
        self.store = store
        self.is_connected: bool = is_connected
        self._polygon = polygon
        self._geometries = geometries

    @property
    def april(self) -> AprilApproximation | None:
        """The object's P and C lists: a view of its store row, made on
        each read, for a deferred object."""
        if self.store is None:
            return self._april
        return self.store[self.oid]

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
    """Wrap a polygon dataset into spatial objects (preprocessing step):
    the polygons are flattened once into columns, which refinement
    reads, and rasterised once into the store the objects defer to."""
    from repro.store.columns import LazyGeometries

    polygons = list(polygons)
    columns = GeometryColumns.from_geometries(polygons)
    connected = columns.connected()
    if grid is None:
        store = AprilColumns.unbuilt(None, columns.boxes, connected)
    else:
        store = build_april_many(columns, grid)
        store.boxes, store.connected = columns.boxes, connected
    geometries = LazyGeometries(columns, polygons)
    return [
        SpatialObject.deferred(i, geometries, p.bbox, flag, store)
        for i, (p, flag) in enumerate(zip(polygons, connected.tolist()))
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

"""The columnar geometry file of a dataset index, and geometry on demand.

``geometries.wkt`` stays the authoritative, human-readable dump of an
index; parsing it back into ``Polygon`` graphs is what a warm join used
to wait on. ``geometries.bin`` holds the same geometries as flat
little-endian arrays, so opening an index is one read plus one SHA-256,
and an exact geometry is only built for the objects that reach
refinement (:class:`LazyGeometries`).

File layout (every integer and float little-endian)::

    header        8-byte magic, then uint64 G, P, R, V
                  (geometries, polygon parts, rings, vertices)
    coords        float64[V, 2]   ring vertices, open (no closing vertex),
                                  in stored orientation (shell CCW, holes CW)
    ring_offsets  int64[R + 1]    ring r owns coords[ring_offsets[r]:ring_offsets[r+1]]
    part_offsets  int64[P + 1]    part p owns rings part_offsets[p]..; the first is its shell
    geom_offsets  int64[G + 1]    geometry g owns parts geom_offsets[g]..
    boxes         float64[G, 4]   xmin, ymin, xmax, ymax
    multi         uint8[G]        1 where the geometry is a MULTIPOLYGON
                                  (a one-part multipolygon keeps its type)

The file carries no checksum of its own: the manifest entry that names
it records its SHA-256 and counts (see :mod:`repro.store.dataset`), and
:func:`read_columns` refuses a file that does not match them.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.geometry.box import Box
from repro.geometry.multipolygon import MultiPolygon
from repro.geometry.polygon import Polygon
from repro.geometry.ring import Ring
from repro.raster.storage import StoreError

_MAGIC = b"RPROGEOM"
_HEADER = struct.Struct("<8s4Q")
_F8 = np.dtype("<f8")
_I8 = np.dtype("<i8")


@dataclass(frozen=True)
class GeometryColumns:
    """The arrays of one ``geometries.bin`` (layout in the module docstring)."""

    coords: np.ndarray
    ring_offsets: np.ndarray
    part_offsets: np.ndarray
    geom_offsets: np.ndarray
    boxes: np.ndarray
    multi: np.ndarray

    def __len__(self) -> int:
        return len(self.multi)

    @classmethod
    def from_geometries(cls, geometries: Sequence) -> "GeometryColumns":
        coords: list = []
        ring_offsets = [0]
        part_offsets = [0]
        geom_offsets = [0]
        boxes = []
        multi = []
        for geometry in geometries:
            is_multi = isinstance(geometry, MultiPolygon)
            for part in geometry.parts if is_multi else (geometry,):
                for ring in part.rings():
                    coords.extend(ring.coords)
                    ring_offsets.append(len(coords))
                part_offsets.append(len(ring_offsets) - 1)
            geom_offsets.append(len(part_offsets) - 1)
            box = geometry.bbox
            boxes.append((box.xmin, box.ymin, box.xmax, box.ymax))
            multi.append(is_multi)
        return cls(
            coords=np.array(coords, dtype=_F8).reshape(-1, 2),
            ring_offsets=np.array(ring_offsets, dtype=_I8),
            part_offsets=np.array(part_offsets, dtype=_I8),
            geom_offsets=np.array(geom_offsets, dtype=_I8),
            boxes=np.array(boxes, dtype=_F8).reshape(-1, 4),
            multi=np.array(multi, dtype=np.uint8),
        )

    def counts(self) -> dict:
        """What the manifest records beside the file's SHA-256."""
        return {
            "count": len(self),
            "parts": len(self.part_offsets) - 1,
            "rings": len(self.ring_offsets) - 1,
            "vertices": len(self.coords),
        }

    def to_bytes(self) -> bytes:
        c = self.counts()
        header = _HEADER.pack(_MAGIC, c["count"], c["parts"], c["rings"], c["vertices"])
        arrays = (
            self.coords, self.ring_offsets, self.part_offsets,
            self.geom_offsets, self.boxes, self.multi,
        )
        return header + b"".join(a.tobytes() for a in arrays)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "GeometryColumns":
        """Decode one file image; ``ValueError`` when it is not one whole,
        structurally sound columnar file."""
        if len(blob) < _HEADER.size:
            raise ValueError("shorter than its header")
        magic, geoms, parts, rings, vertices = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise ValueError("bad magic")
        shapes = (
            (_F8, 2 * vertices), (_I8, rings + 1), (_I8, parts + 1),
            (_I8, geoms + 1), (_F8, 4 * geoms), (np.dtype(np.uint8), geoms),
        )
        expected = _HEADER.size + sum(dtype.itemsize * n for dtype, n in shapes)
        if len(blob) != expected:
            raise ValueError(f"{len(blob)} bytes, header implies {expected}")
        arrays = []
        offset = _HEADER.size
        for dtype, n in shapes:
            arrays.append(np.frombuffer(blob, dtype=dtype, count=n, offset=offset))
            offset += dtype.itemsize * n
        coords, ring_offsets, part_offsets, geom_offsets, boxes, multi = arrays
        # Every ring has >= 3 vertices, every part a shell, every
        # geometry a part, and each table ends where the next begins.
        for offsets, total, least in (
            (ring_offsets, vertices, 3), (part_offsets, rings, 1), (geom_offsets, parts, 1),
        ):
            if offsets[0] != 0 or offsets[-1] != total or (np.diff(offsets) < least).any():
                raise ValueError("inconsistent offset table")
        return cls(
            coords=coords.reshape(-1, 2),
            ring_offsets=ring_offsets,
            part_offsets=part_offsets,
            geom_offsets=geom_offsets,
            boxes=boxes.reshape(-1, 4),
            multi=multi,
        )


def read_columns(index_dir: Path, entry) -> GeometryColumns:
    """Load the columnar file a manifest's ``geometry_columns`` entry
    vouches for; :class:`StoreError` when it is missing or is not the
    file the entry describes."""
    name = entry.get("file") if isinstance(entry, dict) else None
    if not isinstance(name, str) or Path(name).name != name:
        raise StoreError(f"{index_dir}: malformed geometry_columns manifest entry")
    path = index_dir / name
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise StoreError(f"{path}: unreadable geometry columns: {exc}") from exc
    if hashlib.sha256(blob).hexdigest() != entry.get("sha256"):
        raise StoreError(
            f"{path}: corrupt index — geometry columns do not match the "
            "manifest's SHA-256"
        )
    try:
        columns = GeometryColumns.from_bytes(blob)
    except ValueError as exc:
        raise StoreError(f"{path}: corrupt geometry columns: {exc}") from exc
    recorded = {key: entry.get(key) for key in columns.counts()}
    if recorded != columns.counts():
        raise StoreError(
            f"{path}: geometry columns count {columns.counts()}, "
            f"manifest records {recorded}"
        )
    return columns


class LazyGeometries(Sequence):
    """The geometries of a columnar file, each built on first access.

    ``geometries[i]`` constructs the ``Polygon``/``MultiPolygon`` from
    the columns and keeps it, so a dataset pays only for the objects a
    join refines and a warm engine pays for each once. Filling a slot is
    idempotent (two racing threads build equal objects), so readers
    need no lock; forked workers fill their own copy.
    """

    def __init__(self, columns: GeometryColumns) -> None:
        self.columns = columns
        self._rings = columns.ring_offsets.tolist()
        self._parts = columns.part_offsets.tolist()
        self._geoms = columns.geom_offsets.tolist()
        self._built: list = [None] * len(columns)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        geometry = self._built[index]
        if geometry is None:
            if index < 0:
                index += len(self)
            geometry = self._built[index] = self._build(index)
        return geometry

    def _build(self, index: int):
        coords, rings = self.columns.coords, self._rings
        polygons = []
        for part in range(self._geoms[index], self._geoms[index + 1]):
            shell, *holes = (
                Ring.from_normalised(
                    list(map(tuple, coords[rings[r] : rings[r + 1]].tolist()))
                )
                for r in range(self._parts[part], self._parts[part + 1])
            )
            polygons.append(Polygon.from_normalised(shell, tuple(holes)))
        return MultiPolygon(polygons) if self.columns.multi[index] else polygons[0]

    @property
    def materialised(self) -> list[int]:
        """Indices of the geometries built so far, ascending."""
        return [k for k, geometry in enumerate(self._built) if geometry is not None]

    # What a dataset wants to know about every geometry, straight from
    # the columns — none of these builds one.
    def boxes(self) -> list[Box]:
        return [Box(*row) for row in self.columns.boxes.tolist()]

    def connected(self) -> list[bool]:
        """Per geometry: is its interior connected (a single part)?"""
        return (np.diff(self.columns.geom_offsets) == 1).tolist()

    def num_vertices(self) -> list[int]:
        """Per geometry: vertices over all its rings."""
        c = self.columns
        return np.diff(c.ring_offsets[c.part_offsets[c.geom_offsets]]).tolist()


__all__ = ["GeometryColumns", "LazyGeometries", "read_columns"]

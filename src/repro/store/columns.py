"""The columnar geometry file of a dataset index, and geometry on demand.

``geometries.wkt`` stays the authoritative, human-readable dump of an
index; parsing it back into ``Polygon`` graphs is what a warm join used
to wait on. ``geometries.bin`` holds the same geometries as flat
little-endian arrays, so opening an index is one read plus one SHA-256,
and an exact geometry is only built for the objects that reach
refinement (:class:`LazyGeometries`).

The file is :meth:`GeometryColumns.to_bytes
<repro.geometry.columns.GeometryColumns.to_bytes>`: a 40-byte header
(magic and the geometry, part, ring and vertex counts), then the arrays
of :mod:`repro.geometry.columns`, every integer and float little-endian.
It carries no checksum of its own: the manifest entry that names it
records its SHA-256 and counts (see :mod:`repro.store.dataset`), and
:func:`read_columns` refuses a file that does not match them. That
SHA-256 is also the dataset's cache identity in the engine.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from pathlib import Path

from repro.geometry.columns import GeometryColumns
from repro.geometry.multipolygon import MultiPolygon
from repro.geometry.polygon import Polygon
from repro.geometry.ring import Ring
from repro.raster.storage import StoreError


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
    """The geometries of a columnar file or a parsed ``.wkt`` file, each
    built on first access.

    ``geometries[i]`` constructs the ``Polygon``/``MultiPolygon`` from
    the columns and keeps it, so a dataset pays only for the objects a
    join refines and a warm engine pays for each once. Filling a slot is
    idempotent (two racing threads build equal objects), so readers
    need no lock; forked workers fill their own copy. A caller that
    flattened ``geometries`` itself passes them: none is rebuilt.
    """

    def __init__(self, columns: GeometryColumns, geometries: Sequence | None = None) -> None:
        self.columns = columns
        self._rings = columns.ring_offsets.tolist()
        self._parts = columns.part_offsets.tolist()
        self._geoms = columns.geom_offsets.tolist()
        self._built: list = list(geometries) if geometries is not None else [None] * len(columns)

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


__all__ = ["GeometryColumns", "LazyGeometries", "read_columns"]

"""Geometry collections as columns: flat arrays instead of object graphs.

A :class:`GeometryColumns` holds every ring of a collection end to end
plus three offset tables — which vertices make a ring, which rings a
polygon part, which parts a geometry — and one MBR per geometry::

    coords        float64[V, 2]   ring vertices, open (no closing vertex),
                                  in stored orientation (shell CCW, holes CW)
    ring_offsets  int64[R + 1]    ring r owns coords[ring_offsets[r]:ring_offsets[r+1]]
    part_offsets  int64[P + 1]    part p owns rings part_offsets[p]..; the first is its shell
    geom_offsets  int64[G + 1]    geometry g owns parts geom_offsets[g]..
    boxes         float64[G, 4]   xmin, ymin, xmax, ymax
    multi         uint8[G]        1 where the geometry is a MULTIPOLYGON
                                  (a one-part multipolygon keeps its type)

It is the in-memory form of a parsed ``.wkt`` file
(:func:`repro.datasets.io.read_wkt_columns`), the file image of an
index's ``geometries.bin`` (:mod:`repro.store.columns`, which adds the
checksummed read), and what the APRIL build rasterises
(:func:`repro.raster.april.build_april_many`). ``Polygon`` objects are
built from it only where exact geometry is needed.

Refinement reads edges through :attr:`GeometryColumns.edge_blocks`, an
:class:`EdgeBlocks` index built once per columns object and never
written to disk: each ring's edges in runs of at most
:data:`BLOCK_EDGES` (edge ``k`` runs from vertex ``k`` to the next
vertex of its ring), one closed MBR per run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from repro.geometry.multipolygon import MultiPolygon

_MAGIC = b"RPROGEOM"
_HEADER = struct.Struct("<8s4Q")
_F8 = np.dtype("<f8")
_I8 = np.dtype("<i8")

#: Edges per block of :class:`EdgeBlocks` (a ring's last block may hold
#: fewer).
BLOCK_EDGES = 16


@dataclass(frozen=True)
class GeometryColumns:
    """One geometry collection in the layout of the module docstring."""

    coords: np.ndarray
    ring_offsets: np.ndarray
    part_offsets: np.ndarray
    geom_offsets: np.ndarray
    boxes: np.ndarray
    multi: np.ndarray

    def __len__(self) -> int:
        return len(self.multi)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, geometries) -> "GeometryColumns":
        """``geometries`` as columns: columns pass through, a polygon
        sequence is flattened once."""
        if isinstance(geometries, cls):
            return geometries
        return cls.from_geometries(geometries)

    @classmethod
    def from_geometries(cls, geometries: Iterable) -> "GeometryColumns":
        rings: list = []
        ring_offsets = [0]
        part_offsets = [0]
        geom_offsets = [0]
        boxes: list = []
        multi = []
        vertices = 0
        for geometry in geometries:
            is_multi = isinstance(geometry, MultiPolygon)
            for part in geometry.parts if is_multi else (geometry,):
                for ring in part.rings():
                    rings.append(ring.coords)
                    vertices += len(ring.coords)
                    ring_offsets.append(vertices)
                part_offsets.append(len(ring_offsets) - 1)
            geom_offsets.append(len(part_offsets) - 1)
            box = geometry.bbox
            boxes += (box.xmin, box.ymin, box.xmax, box.ymax)
            multi.append(is_multi)
        flat = chain.from_iterable(chain.from_iterable(rings))
        return cls(
            coords=np.fromiter(flat, dtype=_F8, count=2 * vertices).reshape(-1, 2),
            ring_offsets=np.array(ring_offsets, dtype=_I8),
            part_offsets=np.array(part_offsets, dtype=_I8),
            geom_offsets=np.array(geom_offsets, dtype=_I8),
            boxes=np.array(boxes, dtype=_F8).reshape(-1, 4),
            multi=np.array(multi, dtype=np.uint8),
        )

    def __getitem__(self, part: slice) -> "GeometryColumns":
        """Geometries ``part`` (a step-1 slice), offsets rebased; the
        arrays are views."""
        start, stop, _ = part.indices(len(self))
        parts = self.geom_offsets[start : stop + 1]
        rings = self.part_offsets[parts[0] : parts[-1] + 1]
        vertices = self.ring_offsets[rings[0] : rings[-1] + 1]
        return GeometryColumns(
            coords=self.coords[vertices[0] : vertices[-1]],
            ring_offsets=vertices - vertices[0],
            part_offsets=rings - rings[0],
            geom_offsets=parts - parts[0],
            boxes=self.boxes[start:stop],
            multi=self.multi[start:stop],
        )

    def take(self, ids) -> "GeometryColumns":
        """Geometries ``ids`` (any order, repeats allowed) gathered into
        new columns, offsets rebased: equal to the columns of
        ``[geometries[i] for i in ids]``."""
        ids = np.asarray(ids, dtype=_I8)
        parts, geom_offsets = _gather(self.geom_offsets, ids)
        rings, part_offsets = _gather(self.part_offsets, parts)
        vertices, ring_offsets = _gather(self.ring_offsets, rings)
        return GeometryColumns(
            coords=self.coords[vertices],
            ring_offsets=ring_offsets,
            part_offsets=part_offsets,
            geom_offsets=geom_offsets,
            boxes=self.boxes[ids],
            multi=self.multi[ids],
        )

    # ------------------------------------------------------------------
    # what the join asks of every geometry — none of it builds one
    # ------------------------------------------------------------------
    def connected(self) -> np.ndarray:
        """Per geometry: is its interior connected (a single part)?"""
        return np.diff(self.geom_offsets) == 1

    def vertex_counts(self) -> np.ndarray:
        """Per geometry: vertices over all its rings."""
        return np.diff(self.ring_offsets[self.part_offsets[self.geom_offsets]])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edge coordinate arrays ``(ax, ay, bx, by)`` of every ring,
        plus the ``offsets`` of each geometry's edges.

        Edge ``k`` runs from vertex ``k`` to ``k + 1``, except that a
        ring's last vertex closes back to the ring's first — the order
        and the float values of ``Polygon.edges()``.
        """
        xs, ys = self.coords[:, 0], self.coords[:, 1]
        starts, ends = self.ring_offsets[:-1], self.ring_offsets[1:]
        succ = np.arange(1, len(self.coords) + 1)
        succ[ends - 1] = starts
        offsets = self.ring_offsets[self.part_offsets[self.geom_offsets]]
        return xs, ys, xs[succ], ys[succ], offsets

    @cached_property
    def edge_blocks(self) -> "EdgeBlocks":
        """The edge-block index, built the first time it is asked for."""
        return EdgeBlocks.of(self)

    # ------------------------------------------------------------------
    # the file image
    # ------------------------------------------------------------------
    def counts(self) -> dict:
        """What the manifest records beside the file's SHA-256."""
        return {
            "count": len(self),
            "parts": len(self.part_offsets) - 1,
            "rings": len(self.ring_offsets) - 1,
            "vertices": len(self.coords),
        }

    def to_bytes(self) -> bytes:
        """The file image: a 40-byte header (8-byte magic, then uint64
        G, P, R, V), then the six arrays in field order, little-endian."""
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


@dataclass(frozen=True)
class EdgeBlocks:
    """Each ring's edges in runs ("blocks") of at most
    :data:`BLOCK_EDGES` consecutive edges, a block never spanning two
    rings::

        offsets      int64[B + 1]   block b holds edges offsets[b]..offsets[b+1]
        ring         int64[B]       the ring of each block
        boxes        float64[B, 4]  closed MBR of the block's edges, both
                                    ends of each (the closing edge's far
                                    end is its ring's first vertex)
        ring_blocks  int64[R + 1]   ring r owns blocks ring_blocks[r]..
        geom_blocks  int64[G + 1]   geometry g owns blocks geom_blocks[g]..

    An edge lies within its block's box, so a box that misses a clip
    box, a point's y or the part of the plane right of a point proves
    the same of every edge in the block.
    """

    offsets: np.ndarray
    ring: np.ndarray
    boxes: np.ndarray
    ring_blocks: np.ndarray
    geom_blocks: np.ndarray

    @classmethod
    def of(cls, columns: GeometryColumns) -> "EdgeBlocks":
        """The blocks of ``columns``, in edge order (a dozen numpy
        passes; :attr:`GeometryColumns.edge_blocks` caches them)."""
        rings = columns.ring_offsets
        per_ring = -(-np.diff(rings) // BLOCK_EDGES)
        ring_blocks = np.zeros(len(per_ring) + 1, dtype=_I8)
        np.cumsum(per_ring, out=ring_blocks[1:])
        ring = np.repeat(np.arange(len(per_ring), dtype=_I8), per_ring)
        start = rings[ring] + BLOCK_EDGES * (np.arange(len(ring), dtype=_I8) - ring_blocks[ring])
        stop = np.minimum(start + BLOCK_EDGES, rings[ring + 1])
        # Every edge's start vertex is in [start, stop); the far end of
        # the last edge is stop, or the ring's first vertex if it closes.
        coords = columns.coords
        far = coords[np.where(stop == rings[ring + 1], rings[ring], stop)]
        low = np.minimum(np.minimum.reduceat(coords, start), far)
        high = np.maximum(np.maximum.reduceat(coords, start), far)
        return cls(
            offsets=np.append(start, rings[-1]),
            ring=ring,
            boxes=np.concatenate([low, high], axis=1),
            ring_blocks=ring_blocks,
            geom_blocks=ring_blocks[columns.part_offsets[columns.geom_offsets]],
        )


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[k], ..., starts[k] + counts[k] - 1`` for every ``k``, end
    to end."""
    counts = np.asarray(counts, dtype=_I8)
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total, dtype=_I8) + np.repeat(np.asarray(starts, dtype=_I8) - (ends - counts), counts)


def _gather(offsets: np.ndarray, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The children of the ``chosen`` entries of an offset table, end to
    end, and the rebased offset table over them."""
    starts = offsets[chosen]
    counts = offsets[chosen + 1] - starts
    rebased = np.zeros(len(chosen) + 1, dtype=_I8)
    np.cumsum(counts, out=rebased[1:])
    return ranges(starts, counts), rebased


__all__ = ["BLOCK_EDGES", "EdgeBlocks", "GeometryColumns"]

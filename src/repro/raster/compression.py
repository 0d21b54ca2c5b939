"""Compressed storage for interval lists (delta + varint coding).

Table 2 of the paper reports the approximations' storage footprint; the
plain form spends two 64-bit words per interval. Because interval
starts are sorted and Hilbert locality keeps gaps small, delta-encoding
(start deltas and lengths) followed by LEB128 varints typically shrinks
lists by 4-6x. The codec is lossless and self-delimiting, so compressed
lists concatenate into dataset-level blobs.

This module is the store's payload format. Every primitive is a
whole-dataset numpy pass — varint byte sizes from threshold
comparisons, masked writes on encode, terminal-byte scans plus masked
accumulation on decode, and segmented cumulative sums to rebuild
absolute interval bounds — over the CSR lists of one store. One
:class:`CompressedAprilPayload` holds a whole grid's approximations as
a single contiguous byte blob plus per-object byte offsets, and decodes
back to one :class:`~repro.raster.april.AprilColumns` store in one pass.
The original pure-Python scalar codec is the oracle
(``tests/oracles/compression.py``), differentially tested
byte-for-byte against this one (``tests/test_compression_differential.py``).

The wire format: per interval list a varint count, then per interval a
varint *gap* (distance from the previous interval's end; the first gap
is the absolute start) and a varint *length*; one object is its P
stream followed by its C stream. The dataset blob is simply every
object's stream back to back.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.geometry.columns import ranges
from repro.raster.april import AprilColumns
from repro.raster.grid import RasterGrid
from repro.raster.intervals import ListColumns, check_lists


# ----------------------------------------------------------------------
# vectorised varint kernels
# ----------------------------------------------------------------------
def varint_sizes(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each value (int64, non-negative).

    A value of bit length ``b`` takes ``ceil(b / 7)`` bytes — one base
    byte plus one for every 7-bit threshold it reaches. Eight
    comparisons cover the whole non-negative int64 range (max 9 bytes).
    """
    sizes = np.ones(values.shape, dtype=np.int64)
    for shift in range(7, 63, 7):
        sizes += values >= (np.int64(1) << shift)
    return sizes


def varint_encode(values: np.ndarray) -> np.ndarray:
    """LEB128-encode an int64 array into one contiguous uint8 stream.

    Byte-identical to writing each value through the scalar oracle
    encoder in order. At most nine masked passes: pass ``i`` scatters
    byte ``i`` of every value long enough to have one, with the
    continuation bit set unless it is the value's last byte.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    if values.min() < 0:
        raise ValueError("varint cannot encode negative values")
    sizes = varint_sizes(values)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    for i in range(int(sizes.max())):
        mask = sizes > i
        chunk = (values[mask] >> np.int64(7 * i)) & 0x7F
        chunk[sizes[mask] - 1 > i] |= 0x80
        out[starts[mask] + i] = chunk
    return out


def varint_decode(data: np.ndarray, expected: int | None = None) -> np.ndarray:
    """Decode a whole uint8 varint stream back into int64 values.

    Value boundaries are the bytes with a clear continuation bit; each
    value is then accumulated over at most nine masked passes. With
    ``expected`` set, the stream must hold exactly that many values.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    if data.size == 0:
        if expected not in (None, 0):
            raise ValueError("truncated varint")
        return np.empty(0, dtype=np.int64)
    terminal = data < 0x80
    if not terminal[-1]:
        raise ValueError("truncated varint")
    ends = np.nonzero(terminal)[0]
    if expected is not None and ends.size != expected:
        raise ValueError(
            f"varint stream holds {ends.size} values, expected {expected}"
        )
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    sizes = ends - starts + 1
    if sizes.max() > 9:
        raise ValueError("varint too long")
    values = np.zeros(ends.size, dtype=np.int64)
    for i in range(int(sizes.max())):
        mask = sizes > i
        values[mask] |= (data[starts[mask] + i].astype(np.int64) & 0x7F) << np.int64(
            7 * i
        )
    return values


def _deltas(lists: ListColumns) -> np.ndarray:
    """Every interval's gap (from the previous interval's end; a list's
    first from 0) and length, interleaved."""
    previous = np.zeros(lists.starts.size, dtype=np.int64)
    previous[1:] = lists.ends[:-1]
    previous[lists.offsets[:-1][lists.lengths > 0]] = 0
    return np.column_stack([lists.starts - previous, lists.ends - lists.starts]).ravel()


# ----------------------------------------------------------------------
# dataset-level payloads
# ----------------------------------------------------------------------
class CompressedAprilPayload:
    """A whole dataset's approximations as one compressed byte blob.

    ``blob`` is every object's delta+varint stream back to back and
    ``offsets[k]:offsets[k+1]`` bounds object ``k``'s slice.
    :meth:`from_approximations` encodes a dataset and
    :meth:`to_approximations` decodes all of it in one pass: the store
    decodes a payload once, when it loads it.
    """

    __slots__ = ("grid", "blob", "offsets")

    def __init__(self, grid: RasterGrid, blob: np.ndarray, offsets: np.ndarray) -> None:
        self.grid = grid
        self.blob = np.ascontiguousarray(blob, dtype=np.uint8)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if self.offsets.size < 2 or (np.diff(self.offsets) < 0).any():
            raise ValueError("payload offsets must be monotone with one per object")
        if int(self.offsets[-1]) != self.blob.size or int(self.offsets[0]) != 0:
            raise ValueError("payload offsets do not span the blob")

    def __len__(self) -> int:
        return self.offsets.size - 1

    @classmethod
    def from_approximations(cls, approximations: Sequence) -> "CompressedAprilPayload":
        """Encode a dataset's approximations (a store, or any sequence
        :meth:`AprilColumns.of <repro.raster.april.AprilColumns.of>`
        packs) into one payload.

        Gathers one int64 value stream — ``[|P|, P deltas..., |C|, C
        deltas...]`` per object — and varint-encodes it in one call; the
        byte output is identical to concatenating the scalar oracle
        encoder's per-object streams (differentially tested).
        """
        if not len(approximations):
            raise ValueError("nothing to encode: empty approximation sequence")
        store = AprilColumns.of(approximations)
        if store.built is not None or store.grid is None:
            raise ValueError("only approximations that all exist on one grid can be encoded")
        p, c, n = store.p, store.c, len(store)
        p_deltas, c_deltas = _deltas(p), _deltas(c)
        # Object k's values are four runs of one stream: its two counts
        # and its (gap, length) pairs, in that order.
        stream = np.concatenate([p.lengths, c.lengths, p_deltas, c_deltas])
        k, one = np.arange(n), np.ones(n, dtype=np.int64)
        first = np.column_stack(
            [k, 2 * n + 2 * p.offsets[:-1], n + k, 2 * n + p_deltas.size + 2 * c.offsets[:-1]]
        )
        count = np.column_stack([one, 2 * p.lengths, one, 2 * c.lengths])
        values = stream[ranges(first.ravel(), count.ravel())]
        blob = varint_encode(values)
        sizes = varint_sizes(values)
        heads = np.concatenate([[0], np.cumsum(count.sum(axis=1))[:-1]])
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.add.reduceat(sizes, heads), out=offsets[1:])
        return cls(store.grid, blob, offsets)

    def to_approximations(self) -> AprilColumns:
        """Decode every object in one vectorised varint pass, into one
        store.

        This is where stored bytes enter, so a malformed stream raises
        ``ValueError``: object offsets off the value grid or counts
        that do not fit the stream, and — through
        :func:`~repro.raster.intervals.check_lists` — empty, unsorted
        or overlapping intervals, ids beyond the grid, and deltas whose
        running sum wrapped past int64.
        """
        values = varint_decode(self.blob)
        # Byte offsets -> value-stream offsets: a value ends exactly at
        # each clear-continuation byte, so the number of values before
        # byte b is the count of terminal bytes in blob[:b].
        inner = self.offsets[1:]
        if (inner < 1).any():
            raise ValueError("payload offsets do not match the encoded stream")
        value_off = np.zeros(len(self) + 1, dtype=np.int64)
        value_off[1:] = np.cumsum(self.blob < 0x80)[inner - 1]
        heads = value_off[:-1]
        if (heads >= values.size).any():
            raise ValueError("payload offsets do not match the encoded stream")
        # Bounding a count by the stream length keeps the index
        # arithmetic below far from int64 overflow.
        p_counts = np.minimum(values[heads], values.size)
        count_idx = heads + 1 + 2 * p_counts
        if (count_idx >= values.size).any():
            raise ValueError("payload offsets do not match the encoded stream")
        c_counts = np.minimum(values[count_idx], values.size)
        if (np.diff(value_off) != 2 + 2 * p_counts + 2 * c_counts).any():
            raise ValueError("payload offsets do not match the encoded stream")
        num_cells = self.grid.num_cells
        return AprilColumns(
            self.grid,
            _interval_lists(values, heads + 1, p_counts, num_cells),
            _interval_lists(values, count_idx + 1, c_counts, num_cells),
        )


def _interval_lists(
    values: np.ndarray, base: np.ndarray, counts: np.ndarray, num_cells: int
) -> ListColumns:
    """The checked lists whose ``counts[k]`` (gap, length) pairs start
    at ``values[base[k]]``."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    pairs = values[ranges(base, 2 * counts)]
    lengths = pairs[1::2]
    # Each end is the running sum of gap + length within its own list:
    # the running sum of the whole stream, less what came before the list.
    running = np.cumsum(pairs[0::2] + lengths)
    ends = running - np.repeat(np.concatenate([[0], running])[offsets[:-1]], counts)
    starts = ends - lengths
    check_lists(starts, ends, offsets, num_cells)
    return ListColumns(starts, ends, offsets)


def block_decode(approximations: Iterable) -> None:
    """Does nothing: a payload decodes once, when the store loads it.

    Kept because ``bench/layers.py`` still times it as its decode
    layer; the load's decode shows up in ``store.payload_load_s``.
    """


__all__ = [
    "CompressedAprilPayload",
    "block_decode",
    "varint_decode",
    "varint_encode",
    "varint_sizes",
]

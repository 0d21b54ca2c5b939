"""Compressed storage for interval lists (delta + varint coding).

Table 2 of the paper reports the approximations' storage footprint; the
plain form spends two 64-bit words per interval. Because interval
starts are sorted and Hilbert locality keeps gaps small, delta-encoding
(start deltas and lengths) followed by LEB128 varints typically shrinks
lists by 4-6x. The codec is lossless and self-delimiting, so compressed
lists concatenate into dataset-level blobs.

This module is the store's payload format. Every primitive is a
whole-dataset numpy pass — varint byte sizes from threshold
comparisons, scattered masked writes on encode, terminal-byte scans
plus masked accumulation on decode, and segmented cumulative sums to
rebuild absolute interval bounds. One :class:`CompressedAprilPayload`
holds a whole grid's approximations as a single contiguous byte blob
plus per-object byte offsets, and decodes back to plain
:class:`~repro.raster.april.AprilApproximation` objects in one pass.
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

from repro.raster.april import AprilApproximation
from repro.raster.grid import RasterGrid
from repro.raster.intervals import IntervalList, check_lists, split_lists


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


def _segmented_bounds(
    gaps: np.ndarray, lengths: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Absolute (starts, ends) from per-list delta streams.

    ``gaps``/``lengths`` are every list's deltas back to back and
    ``counts`` the per-list interval counts. Each end is the running
    sum of ``gap + length`` within its own list — a global cumulative
    sum minus the sum accumulated before the list began.
    """
    advance = gaps + lengths
    running = np.cumsum(advance)
    first = np.zeros(counts.size, dtype=np.int64)
    first[1:] = np.cumsum(counts)[:-1]
    nonempty = counts > 0
    base = np.zeros(counts.size, dtype=np.int64)
    base[nonempty] = running[first[nonempty]] - advance[first[nonempty]]
    ends = running - np.repeat(base, counts)
    return ends - lengths, ends


def _delta_streams(
    lists: Sequence[IntervalList],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts, gaps, lengths) of many interval lists, concatenated."""
    counts = np.fromiter((len(il) for il in lists), dtype=np.int64, count=len(lists))
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return counts, empty, empty
    starts = np.concatenate([il.starts for il in lists])
    ends = np.concatenate([il.ends for il in lists])
    previous = np.zeros(total, dtype=np.int64)
    previous[1:] = ends[:-1]
    first = np.zeros(counts.size, dtype=np.int64)
    first[1:] = np.cumsum(counts)[:-1]
    previous[first[counts > 0]] = 0
    return counts, starts - previous, ends - starts


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
        """Encode a dataset's approximations into one payload.

        Assembles a single int64 value stream — ``[|P|, P deltas...,
        |C|, C deltas...]`` per object — with scattered writes and
        varint-encodes it in one call; the byte output is identical to
        concatenating the scalar oracle encoder's per-object streams
        (differentially tested).
        """
        if not approximations:
            raise ValueError("nothing to encode: empty approximation sequence")
        grid = approximations[0].grid
        p_counts, p_gaps, p_lens = _delta_streams([a.p for a in approximations])
        c_counts, c_gaps, c_lens = _delta_streams([a.c for a in approximations])
        n = len(approximations)

        per_object = 2 + 2 * p_counts + 2 * c_counts
        value_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_object, out=value_off[1:])
        values = np.empty(int(value_off[-1]), dtype=np.int64)
        values[value_off[:-1]] = p_counts
        values[value_off[:-1] + 1 + 2 * p_counts] = c_counts
        p_base = np.repeat(value_off[:-1] + 1, p_counts)
        p_within = np.arange(p_gaps.size, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(p_counts)[:-1])), p_counts
        )
        values[p_base + 2 * p_within] = p_gaps
        values[p_base + 2 * p_within + 1] = p_lens
        c_base = np.repeat(value_off[:-1] + 2 + 2 * p_counts, c_counts)
        c_within = np.arange(c_gaps.size, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(c_counts)[:-1])), c_counts
        )
        values[c_base + 2 * c_within] = c_gaps
        values[c_base + 2 * c_within + 1] = c_lens
        blob = varint_encode(values)
        sizes = varint_sizes(values)

        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.add.reduceat(sizes, value_off[:-1]), out=offsets[1:])
        return cls(grid, blob, offsets)

    def to_approximations(self) -> list[AprilApproximation]:
        """Decode every object in one vectorised varint pass.

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
        p_lists = _interval_lists(values, heads + 1, p_counts, num_cells)
        c_lists = _interval_lists(values, count_idx + 1, c_counts, num_cells)
        return [
            AprilApproximation(grid=self.grid, p=p, c=c) for p, c in zip(p_lists, c_lists)
        ]


def _interval_lists(
    values: np.ndarray, base: np.ndarray, counts: np.ndarray, num_cells: int
) -> list[IntervalList]:
    """The checked lists whose ``counts[k]`` (gap, length) pairs start
    at ``values[base[k]]``."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    idx = np.repeat(base - 2 * offsets[:-1], counts) + 2 * np.arange(
        int(offsets[-1]), dtype=np.int64
    )
    starts, ends = _segmented_bounds(values[idx], values[idx + 1], counts)
    check_lists(starts, ends, offsets, num_cells)
    return split_lists(starts, ends, offsets)


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

"""Compressed storage for interval lists (delta + varint coding).

Table 2 of the paper reports the approximations' storage footprint; the
plain form spends two 64-bit words per interval. Because interval
starts are sorted and Hilbert locality keeps gaps small, delta-encoding
(start deltas and lengths) followed by LEB128 varints typically shrinks
lists by 4-6x. The codec is lossless and self-delimiting, so compressed
lists concatenate into dataset-level blobs.

Since PR 7 this module is the store's real payload format, not a
demonstration codec. Every primitive is a whole-dataset numpy pass —
varint byte sizes from threshold comparisons, scattered masked writes
on encode, terminal-byte scans plus masked accumulation on decode, and
segmented cumulative sums to rebuild absolute interval bounds. One
:class:`CompressedAprilPayload` holds a whole grid's approximations as
a single contiguous byte blob plus a per-object offset/summary table,
so each object decodes independently. The original pure-Python scalar
codec is the oracle (``tests/oracles/compression.py``), differentially
tested byte-for-byte against this one
(``tests/test_compression_differential.py``).

The wire format: per interval list a varint count, then per interval a
varint *gap* (distance from the previous interval's end; the first gap
is the absolute start) and a varint *length*; one object is its P
stream followed by its C stream. The dataset blob is simply every
object's stream back to back, with byte offsets kept in the summary
table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from repro.obs.metrics import get_registry, metrics_enabled
from repro.raster.april import AprilApproximation
from repro.raster.grid import RasterGrid
from repro.raster.intervals import IntervalList

#: Decoded-object cache bound per payload (plain interval-list bytes).
#: Large enough to keep every object of the bundled scenarios decoded;
#: bounded so a huge dataset cannot hold its whole plain form resident
#: next to the compressed blob. ``Engine`` overrides it per instance.
DEFAULT_DECODED_CACHE_BYTES = 128 << 20

#: Summary ``flags`` bits (see :class:`CompressedAprilPayload`).
FLAG_P_ALL = 1  #: the P list is one single run of ALL-inside cells
FLAG_PARTIAL = 2  #: C covers cells P does not (boundary/partial cells)


def _observe_decoded_bytes(nbytes: int) -> None:
    if metrics_enabled() and nbytes:
        get_registry().inc("repro_payload_decoded_bytes_total", value=int(nbytes))


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
    ``expected`` set, the stream must hold exactly that many values
    (the shape check block decoding leans on).
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


def _reject_wrapped(ends: np.ndarray, counts: np.ndarray) -> None:
    """Raise if a list's deltas summed past int64 (bytes from disk).

    ``ends`` are :func:`_segmented_bounds` results for streams whose
    gaps are ``>= 0`` and lengths ``>= 1`` (varints, checked by the
    caller), so inside one list every end must exceed the one before
    it, and the first must exceed 0. A running sum that crosses
    ``2**63`` wraps below its predecessor — each step adds less than
    ``2**64`` — so this test finds every overflow, where a scalar
    decoder would grow a Python integer past what the arrays can hold.
    Without it the wrapped bounds break the sorted/disjoint invariant
    every ``searchsorted`` kernel relies on.
    """
    previous = np.zeros(ends.size, dtype=np.int64)
    previous[1:] = ends[:-1]
    first = np.zeros(counts.size, dtype=np.int64)
    first[1:] = np.cumsum(counts)[:-1]
    previous[first[counts > 0]] = 0
    if (ends <= previous).any():
        raise ValueError("corrupt payload: interval bounds overflow int64")


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

    ``blob`` is every object's delta+varint stream back to back;
    ``offsets[k]:offsets[k+1]`` bounds object ``k``'s slice so objects
    decode independently (and in batches). The summary table carries,
    per object, what the decode-aware filters need *without* touching
    the blob:

    - ``p_count`` / ``c_count`` — interval counts;
    - ``p_first``/``p_last`` and ``c_first``/``c_last`` — the list's
      overall half-open Hilbert cell range (zeros for empty lists);
    - ``p_cells`` / ``c_cells`` — total covered cells;
    - ``flags`` — ``FLAG_P_ALL`` when P is one single ALL-inside run
      (the containment screen's trigger) and ``FLAG_PARTIAL`` when C
      covers boundary cells beyond P.

    Decoded objects land in a bounded LRU (``max_decoded_bytes`` of
    plain interval-list bytes), so repeated warm joins amortise decode
    cost while a giant dataset cannot silently materialise its whole
    plain form. Every decode increments
    ``repro_payload_decoded_bytes_total``.
    """

    __slots__ = (
        "grid",
        "blob",
        "offsets",
        "p_count",
        "c_count",
        "p_cells",
        "c_cells",
        "p_first",
        "p_last",
        "c_first",
        "c_last",
        "flags",
        "max_decoded_bytes",
        "_decoded",
        "_decoded_nbytes",
    )

    def __init__(
        self,
        grid: RasterGrid,
        blob: np.ndarray,
        offsets: np.ndarray,
        summary: dict,
        max_decoded_bytes: int = DEFAULT_DECODED_CACHE_BYTES,
    ) -> None:
        self.grid = grid
        self.blob = np.ascontiguousarray(blob, dtype=np.uint8)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        for name in ("p_count", "c_count", "p_cells", "c_cells",
                     "p_first", "p_last", "c_first", "c_last"):
            setattr(self, name, np.ascontiguousarray(summary[name], dtype=np.int64))
        self.flags = np.ascontiguousarray(summary["flags"], dtype=np.uint8)
        self.max_decoded_bytes = max_decoded_bytes
        self._decoded: OrderedDict[int, AprilApproximation] = OrderedDict()
        self._decoded_nbytes = 0
        n = len(self)
        if self.offsets.size != n + 1 or (np.diff(self.offsets) < 0).any():
            raise ValueError("payload offsets must be monotone with one per object")
        if int(self.offsets[-1]) != self.blob.size or int(self.offsets[0]) != 0:
            raise ValueError("payload offsets do not span the blob")

    def __len__(self) -> int:
        return self.p_count.size

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_approximations(
        cls,
        approximations: Sequence,
        max_decoded_bytes: int = DEFAULT_DECODED_CACHE_BYTES,
    ) -> "CompressedAprilPayload":
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

        summary = _build_summary(approximations, p_counts, c_counts)
        return cls(grid, blob, offsets, summary, max_decoded_bytes=max_decoded_bytes)

    @classmethod
    def from_blob(
        cls,
        grid: RasterGrid,
        blob: np.ndarray,
        offsets: np.ndarray,
        max_decoded_bytes: int = DEFAULT_DECODED_CACHE_BYTES,
    ) -> "CompressedAprilPayload":
        """Rebuild a payload from its stored blob and object offsets.

        The summary table is fully derivable from the streams, so the
        store does not persist it; this constructor recovers it with
        one vectorised varint pass over the whole blob — counts, cell
        bounds and covered-cell totals per object — without building a
        single :class:`IntervalList`. This is where stored bytes enter,
        so malformed streams (offsets off the value grid, empty
        intervals, deltas summing past int64) raise ``ValueError`` here
        and never reach the summary the zero-decode screens trust.
        """
        blob = np.ascontiguousarray(blob, dtype=np.uint8)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if offsets.size < 2:
            raise ValueError("payload offsets must cover at least one object")
        n = offsets.size - 1
        values = varint_decode(blob)
        # Byte offsets -> value-stream offsets: a value ends exactly at
        # each clear-continuation byte, so the number of values before
        # byte b is the count of terminal bytes in blob[:b].
        cum_terminal = np.cumsum(blob < 0x80)
        value_off = np.zeros(n + 1, dtype=np.int64)
        inner = offsets[1:]
        if (inner < 1).any() or (inner > blob.size).any():
            raise ValueError("payload offsets do not span the blob")
        value_off[1:] = cum_terminal[inner - 1]
        if (value_off[:-1] >= values.size).any():
            raise ValueError("payload offsets do not match the encoded stream")
        p_counts = values[value_off[:-1]]
        if (p_counts < 0).any():
            raise ValueError("corrupt payload: negative interval count")
        count_idx = value_off[:-1] + 1 + 2 * p_counts
        if (count_idx >= values.size).any():
            raise ValueError("payload offsets do not match the encoded stream")
        c_counts = values[count_idx]
        if (np.diff(value_off) != 2 + 2 * p_counts + 2 * c_counts).any():
            raise ValueError("payload offsets do not match the encoded stream")

        def bounds(base: np.ndarray, counts: np.ndarray):
            idx = np.repeat(base, counts) + 2 * (
                np.arange(int(counts.sum()), dtype=np.int64)
                - np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
            )
            gaps = values[idx]
            lengths = values[idx + 1]
            if gaps.size and (lengths < 1).any():
                raise ValueError("corrupt payload: empty or inverted interval")
            starts, ends = _segmented_bounds(gaps, lengths, counts)
            _reject_wrapped(ends, counts)
            first_idx = np.concatenate(([0], np.cumsum(counts)[:-1]))
            cum_lens = np.concatenate(([0], np.cumsum(lengths)))
            cells = cum_lens[first_idx + counts] - cum_lens[first_idx]
            first = np.zeros(counts.size, dtype=np.int64)
            last = np.zeros(counts.size, dtype=np.int64)
            nonempty = counts > 0
            first[nonempty] = starts[first_idx[nonempty]]
            last[nonempty] = ends[first_idx[nonempty] + counts[nonempty] - 1]
            return cells, first, last

        p_cells, p_first, p_last = bounds(value_off[:-1] + 1, p_counts)
        c_cells, c_first, c_last = bounds(value_off[:-1] + 2 + 2 * p_counts, c_counts)
        flags = np.zeros(n, dtype=np.uint8)
        flags[p_counts == 1] |= FLAG_P_ALL
        flags[c_cells > p_cells] |= FLAG_PARTIAL
        summary = {
            "p_count": p_counts, "c_count": c_counts,
            "p_cells": p_cells, "c_cells": c_cells,
            "p_first": p_first, "p_last": p_last,
            "c_first": c_first, "c_last": c_last,
            "flags": flags,
        }
        return cls(grid, blob, offsets, summary, max_decoded_bytes=max_decoded_bytes)

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def plain_nbytes(self) -> int:
        """The two-words-per-interval footprint of the decoded form."""
        return 16 * int(self.p_count.sum() + self.c_count.sum())

    def object_nbytes(self, index: int) -> int:
        return 16 * int(self.p_count[index] + self.c_count[index])

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def is_decoded(self, index: int) -> bool:
        return index in self._decoded

    def decode(self, index: int) -> AprilApproximation:
        """Object ``index``'s approximation, decoded through the LRU."""
        cached = self._decoded.get(index)
        if cached is not None:
            self._decoded.move_to_end(index)
            return cached
        return self.decode_block([index])[0]

    def decode_block(self, indices: Sequence[int]) -> list[AprilApproximation]:
        """Decode many objects in one pass; returns their approximations.

        Missing objects' byte slices are gathered and decoded together
        (one varint scan, one segmented reconstruction), then inserted
        into the bounded decoded-LRU.
        """
        # Gather results in a local map: with a tight decoded-bytes
        # bound the LRU may evict a just-inserted object before the
        # block is assembled, so the cache cannot serve as the staging
        # area for the return value.
        found: dict[int, AprilApproximation] = {}
        missing = []
        for k in dict.fromkeys(int(i) for i in indices):
            cached = self._decoded.get(k)
            if cached is not None:
                self._decoded.move_to_end(k)
                found[k] = cached
            else:
                missing.append(k)
        if missing:
            fresh = 0
            for k, approx in zip(missing, self._decode_many(missing)):
                found[k] = approx
                self._insert(k, approx)
                fresh += approx.nbytes
            _observe_decoded_bytes(fresh)
        return [found[int(i)] for i in indices]

    def approximations(self) -> list["LazyAprilApproximation"]:
        """One lazy, duck-typed approximation per object."""
        return [LazyAprilApproximation(self, k) for k in range(len(self))]

    def _decode_many(self, indices: list[int]) -> list[AprilApproximation]:
        slices = [self.blob[int(self.offsets[k]): int(self.offsets[k + 1])]
                  for k in indices]
        buffer = np.concatenate(slices) if len(slices) > 1 else slices[0]
        p_counts = self.p_count[indices]
        c_counts = self.c_count[indices]
        expected = int(2 * (p_counts.sum() + c_counts.sum())) + 2 * len(indices)
        values = varint_decode(buffer, expected=expected)

        n = len(indices)
        per_object = 2 + 2 * p_counts + 2 * c_counts
        value_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_object, out=value_off[1:])
        if not (values[value_off[:-1]] == p_counts).all() or not (
            values[value_off[:-1] + 1 + 2 * p_counts] == c_counts
        ).all():
            raise ValueError("payload summary does not match encoded stream")

        def extract(base: np.ndarray, counts: np.ndarray):
            idx = np.repeat(base, counts) + 2 * (
                np.arange(int(counts.sum()), dtype=np.int64)
                - np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
            )
            gaps = values[idx]
            lengths = values[idx + 1]
            if gaps.size and (lengths < 1).any():
                raise ValueError("corrupt payload: empty or inverted interval")
            return _segmented_bounds(gaps, lengths, counts)

        p_starts, p_ends = extract(value_off[:-1] + 1, p_counts)
        c_starts, c_ends = extract(value_off[:-1] + 2 + 2 * p_counts, c_counts)
        p_off = np.concatenate(([0], np.cumsum(p_counts)))
        c_off = np.concatenate(([0], np.cumsum(c_counts)))
        out = []
        for j, k in enumerate(indices):
            p = IntervalList._from_arrays(
                p_starts[p_off[j]: p_off[j + 1]], p_ends[p_off[j]: p_off[j + 1]]
            )
            c = IntervalList._from_arrays(
                c_starts[c_off[j]: c_off[j + 1]], c_ends[c_off[j]: c_off[j + 1]]
            )
            out.append(self._validated(k, p, c))
        return out

    def _validated(self, index: int, p: IntervalList, c: IntervalList) -> AprilApproximation:
        if len(p) != int(self.p_count[index]) or len(c) != int(self.c_count[index]):
            raise ValueError(
                f"payload object {index}: decoded interval counts do not match "
                "the summary table"
            )
        return AprilApproximation(grid=self.grid, p=p, c=c)

    def _insert(self, index: int, approx: AprilApproximation) -> None:
        self._decoded[index] = approx
        self._decoded_nbytes += approx.nbytes
        while self._decoded_nbytes > self.max_decoded_bytes and len(self._decoded) > 1:
            _, evicted = self._decoded.popitem(last=False)
            self._decoded_nbytes -= evicted.nbytes


def _build_summary(
    approximations: Sequence, p_counts: np.ndarray, c_counts: np.ndarray
) -> dict:
    n = len(approximations)
    summary = {
        "p_count": p_counts,
        "c_count": c_counts,
        "p_cells": np.zeros(n, dtype=np.int64),
        "c_cells": np.zeros(n, dtype=np.int64),
        "p_first": np.zeros(n, dtype=np.int64),
        "p_last": np.zeros(n, dtype=np.int64),
        "c_first": np.zeros(n, dtype=np.int64),
        "c_last": np.zeros(n, dtype=np.int64),
    }
    for k, a in enumerate(approximations):
        if len(a.p):
            summary["p_cells"][k] = int((a.p.ends - a.p.starts).sum())
            summary["p_first"][k] = int(a.p.starts[0])
            summary["p_last"][k] = int(a.p.ends[-1])
        if len(a.c):
            summary["c_cells"][k] = int((a.c.ends - a.c.starts).sum())
            summary["c_first"][k] = int(a.c.starts[0])
            summary["c_last"][k] = int(a.c.ends[-1])
    flags = np.zeros(n, dtype=np.uint8)
    flags[p_counts == 1] |= FLAG_P_ALL
    flags[summary["c_cells"] > summary["p_cells"]] |= FLAG_PARTIAL
    summary["flags"] = flags
    return summary


class LazyAprilApproximation:
    """An object's approximation, decoded from its payload on demand.

    Duck-types :class:`~repro.raster.april.AprilApproximation` — the
    filters and kernels only touch ``grid``/``p``/``c``/``nbytes``/
    ``has_full_cells``/``check_compatible``, all provided here. Summary
    columns (``c_first`` …) are exposed as zero-decode properties so
    the decode-aware screens in :mod:`repro.filters.intermediate` can
    rule pairs out without touching the blob.
    """

    __slots__ = ("payload", "index")

    def __init__(self, payload: CompressedAprilPayload, index: int) -> None:
        self.payload = payload
        self.index = index

    @property
    def grid(self) -> RasterGrid:
        return self.payload.grid

    @property
    def p(self) -> IntervalList:
        return self.payload.decode(self.index).p

    @property
    def c(self) -> IntervalList:
        return self.payload.decode(self.index).c

    @property
    def nbytes(self) -> int:
        return self.payload.object_nbytes(self.index)

    @property
    def has_full_cells(self) -> bool:
        return bool(self.payload.p_count[self.index] > 0)

    @property
    def p_count(self) -> int:
        return int(self.payload.p_count[self.index])

    @property
    def c_count(self) -> int:
        return int(self.payload.c_count[self.index])

    @property
    def p_first(self) -> int:
        return int(self.payload.p_first[self.index])

    @property
    def p_last(self) -> int:
        return int(self.payload.p_last[self.index])

    @property
    def c_first(self) -> int:
        return int(self.payload.c_first[self.index])

    @property
    def c_last(self) -> int:
        return int(self.payload.c_last[self.index])

    def check_compatible(self, other) -> None:
        if not self.grid.compatible_with(other.grid):
            raise ValueError(
                "APRIL approximations built on different grids cannot be compared"
            )

    def __repr__(self) -> str:
        state = "decoded" if self.payload.is_decoded(self.index) else "compressed"
        return (
            f"LazyAprilApproximation(#{self.index}, |P|={self.p_count}, "
            f"|C|={self.c_count}, {state})"
        )


def block_decode(approximations: Iterable) -> None:
    """Decode every not-yet-decoded lazy approximation, batched per payload.

    The batched filters call this right before running interval kernels
    over a surviving candidate set, so blob slices are gathered and
    varint-scanned in one pass per payload instead of one tiny decode
    per property access. Plain (eager) approximations pass through
    untouched.
    """
    groups: dict[int, tuple[CompressedAprilPayload, list[int]]] = {}
    for a in approximations:
        if isinstance(a, LazyAprilApproximation) and not a.payload.is_decoded(a.index):
            payload = a.payload
            entry = groups.get(id(payload))
            if entry is None:
                groups[id(payload)] = (payload, [a.index])
            else:
                entry[1].append(a.index)
    for payload, indices in groups.values():
        payload.decode_block(indices)


__all__ = [
    "CompressedAprilPayload",
    "DEFAULT_DECODED_CACHE_BYTES",
    "FLAG_PARTIAL",
    "FLAG_P_ALL",
    "LazyAprilApproximation",
    "block_decode",
    "varint_decode",
    "varint_encode",
    "varint_sizes",
]

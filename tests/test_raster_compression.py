"""Tests for the delta+varint payload codec, one interval list at a time.

Each list is stored as one object of a :class:`CompressedAprilPayload`
(its P stream; C is the same list) and read back through
``decode_block`` or a payload rebuilt by ``from_blob``. The bytes are
held to the scalar oracle's streams (``tests/oracles/compression.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box, Polygon
from repro.raster import RasterGrid, build_april
from repro.raster.april import AprilApproximation
from repro.raster.compression import CompressedAprilPayload
from repro.raster.intervals import IntervalList

from tests.oracles import compression as oracle

#: The codec is grid-agnostic: ids past this grid's range must survive.
LIST_GRID = RasterGrid(Box(0, 0, 1, 1), order=16)


def encode(*lists: IntervalList) -> CompressedAprilPayload:
    """One payload object per list, the list as both its P and C."""
    return CompressedAprilPayload.from_approximations(
        [AprilApproximation(grid=LIST_GRID, p=il, c=il) for il in lists]
    )


def roundtrip(*lists: IntervalList) -> list[IntervalList]:
    """The lists back from the bytes alone: ``from_blob``, then one decode."""
    payload = encode(*lists)
    assert payload.blob.tobytes() == b"".join(
        oracle.encode_intervals(il) * 2 for il in lists
    )
    rebuilt = CompressedAprilPayload.from_blob(LIST_GRID, payload.blob, payload.offsets)
    decoded = rebuilt.decode_block(range(len(lists)))
    for a in decoded:
        assert a.p == a.c
    return [a.p for a in decoded]


class TestCodec:
    def test_empty_list(self):
        payload = encode(IntervalList())
        assert payload.blob.tobytes() == b"\x00\x00"
        assert roundtrip(IntervalList()) == [IntervalList()]

    def test_roundtrip_simple(self):
        il = IntervalList([(3, 7), (10, 11), (100000, 100500)])
        assert roundtrip(il) == [il]

    def test_concatenated_streams(self):
        a = IntervalList([(1, 5)])
        b = IntervalList([(2, 3), (9, 12)])
        payload = encode(a, b)
        end_a = 2 * len(oracle.encode_intervals(a))
        assert payload.offsets.tolist() == [0, end_a, payload.blob.size]
        assert roundtrip(a, b) == [a, b]

    def test_truncated_raises(self):
        payload = encode(IntervalList([(5, 9)]))
        blob = payload.blob[:-1]
        with pytest.raises(ValueError):
            CompressedAprilPayload.from_blob(
                LIST_GRID, blob, np.array([0, blob.size])
            ).decode_block([0])

    @given(st.sets(st.integers(0, 5000), max_size=60))
    @settings(max_examples=120)
    def test_roundtrip_random(self, cells):
        il = IntervalList.from_cells(cells)
        assert roundtrip(il) == [il]

    def test_large_ids_no_overflow(self):
        il = IntervalList([(2**40, 2**40 + 17)])
        assert roundtrip(il) == [il]


class TestApproximationCodec:
    GRID = RasterGrid(Box(0, 0, 64, 64), order=8)

    def test_roundtrip(self):
        approx = build_april(Polygon.box(5, 5, 30, 30), self.GRID)
        payload = CompressedAprilPayload.from_approximations([approx])
        assert payload.blob.tobytes() == (
            oracle.encode_intervals(approx.p) + oracle.encode_intervals(approx.c)
        )
        (back,) = payload.decode_block([0])
        assert back.p == approx.p and back.c == approx.c

    def test_compression_beats_plain_storage(self):
        approx = build_april(Polygon.box(5, 5, 60, 60), self.GRID)
        payload = CompressedAprilPayload.from_approximations([approx])
        # delta+varint should shrink 16-byte intervals a lot
        assert approx.nbytes / payload.blob.size > 2.0

    def test_many_objects_blob(self):
        polys = [Polygon.box(i, i, i + 5, i + 5) for i in range(0, 40, 7)]
        approx = [build_april(p, self.GRID) for p in polys]
        payload = CompressedAprilPayload.from_approximations(approx)
        rebuilt = CompressedAprilPayload.from_blob(
            self.GRID, payload.blob, payload.offsets
        )
        for k, a in enumerate(approx):
            back = rebuilt.decode(k)
            assert back.p == a.p and back.c == a.c
        assert int(rebuilt.offsets[-1]) == rebuilt.blob.size

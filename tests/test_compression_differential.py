"""Differential suite: vectorised payload codec vs the scalar oracle.

Since PR 7 the delta+varint codec is the store's real payload format,
so a divergence between the numpy fast path and the original scalar
loops silently corrupts every persisted index. This suite generates
~10k randomized interval lists — biased toward empty lists,
single-cell intervals and max-cell-id extremes — and asserts the two
implementations agree byte for byte on encode, value for value on
round-trips (one list per payload object), and object for object on
whole-dataset payload blobs,
mirroring the PR 2 kernels pattern (``tests/test_kernels_differential``).
The scalar side is ``tests/oracles/compression.py``. A last class pins
the one place the two *must* differ: a stream whose deltas sum past
int64, which Python integers survive and numpy arrays cannot.
"""

import numpy as np
import pytest

from repro.geometry import Box
from repro.raster import RasterGrid, build_april
from repro.raster.april import AprilApproximation
from repro.raster.compression import (
    CompressedAprilPayload,
    FLAG_P_ALL,
    FLAG_PARTIAL,
    block_decode,
    varint_decode,
    varint_encode,
    varint_sizes,
)
from repro.raster.intervals import EMPTY_INTERVALS, IntervalList
from repro.raster.storage import StoreError, load_approximations, save_approximations

from tests.oracles import compression as oracle

N_LISTS = 10_000
#: The codec is grid-agnostic int64; it must survive cell ids far past
#: any real grid's range without varint overflow.
MAX_CELL = (1 << 62) - 1


# ----------------------------------------------------------------------
# generators (biased toward the nasty cases)
# ----------------------------------------------------------------------
def random_list(rng: np.random.Generator) -> IntervalList:
    kind = int(rng.integers(0, 7))
    if kind == 0:
        return EMPTY_INTERVALS
    if kind == 1:  # one single-cell interval
        c = int(rng.integers(0, 1000))
        return IntervalList([(c, c + 1)])
    if kind == 2:  # adjacency-heavy small cells
        cells = rng.integers(0, 80, size=int(rng.integers(1, 40)))
        return IntervalList.from_cells(cells)
    if kind == 3:  # sparse wide-range singletons
        cells = rng.integers(0, 1 << 40, size=int(rng.integers(0, 12)))
        return IntervalList.from_cells(cells)
    if kind == 4:  # max-cell-id extreme: intervals touching the top
        start = MAX_CELL - int(rng.integers(1, 1000))
        return IntervalList([(0, 1), (start, MAX_CELL + 1)])
    if kind == 5:  # long runs with varied gaps
        widths = rng.integers(1, 5000, size=int(rng.integers(1, 30)))
        gaps = rng.integers(1, 5000, size=widths.size)
        starts = np.cumsum(gaps + widths) - widths
        return IntervalList._from_arrays(starts, starts + widths)
    # mixed density mid-range
    cells = rng.integers(0, 4000, size=int(rng.integers(0, 120)))
    return IntervalList.from_cells(cells)


@pytest.fixture(scope="module")
def lists():
    rng = np.random.default_rng(0x5EED)
    return [random_list(rng) for _ in range(N_LISTS)]


@pytest.fixture(scope="module")
def real_approximations():
    """Real APRIL builds (P inside C, P avoiding the boundary)."""
    rng = np.random.default_rng(7)
    grid = RasterGrid(Box(0, 0, 100, 100), order=7)
    out = []
    from repro.datasets.synthetic import generate_blobs

    for poly in generate_blobs(rng, 60, Box(5, 5, 95, 95), (3, 25), (6, 24)):
        out.append(build_april(poly, grid))
    return out


# ----------------------------------------------------------------------
# varint primitives
# ----------------------------------------------------------------------
class TestVarintKernels:
    def test_sizes_match_scalar(self):
        values = np.concatenate(
            [
                np.array([0, 1, 127, 128, 129, (1 << 62) - 1, 1 << 62], dtype=np.int64),
                (np.int64(1) << np.arange(0, 63, dtype=np.int64)),
                (np.int64(1) << np.arange(1, 63, dtype=np.int64)) - 1,
                np.random.default_rng(3).integers(0, 1 << 62, size=2000),
            ]
        )
        for v, size in zip(values.tolist(), varint_sizes(values).tolist()):
            out = bytearray()
            oracle.write_varint(out, v)
            assert size == len(out), f"size mismatch for {v}"

    def test_encode_matches_scalar(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 1 << 62, size=5000)
        values[:10] = [0, 1, 127, 128, 16383, 16384, (1 << 62) - 1, 7, 300, 1 << 35]
        expected = bytearray()
        for v in values.tolist():
            oracle.write_varint(expected, v)
        assert varint_encode(values).tobytes() == bytes(expected)

    def test_decode_roundtrip(self):
        rng = np.random.default_rng(12)
        values = rng.integers(0, 1 << 62, size=5000)
        encoded = varint_encode(values)
        assert (varint_decode(encoded, expected=values.size) == values).all()

    def test_decode_rejects_truncation_and_wrong_count(self):
        encoded = varint_encode(np.array([1, 300, 70000], dtype=np.int64))
        with pytest.raises(ValueError):
            varint_decode(encoded[:-1])
        with pytest.raises(ValueError):
            varint_decode(encoded, expected=2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varint_encode(np.array([3, -1], dtype=np.int64))


# ----------------------------------------------------------------------
# one list per payload object
# ----------------------------------------------------------------------
class TestIntervalCodecDifferential:
    """Every generated list as the P stream of its own payload object
    (C empty), against the oracle's per-list streams."""

    GRID = RasterGrid(Box(0, 0, 1, 1), order=16)

    def _objects(self, lists):
        return [
            AprilApproximation(grid=self.GRID, p=il, c=EMPTY_INTERVALS) for il in lists
        ]

    def test_blobs_byte_identical(self, lists):
        payload = CompressedAprilPayload.from_approximations(self._objects(lists))
        blob = payload.blob.tobytes()
        empty = oracle.encode_intervals(EMPTY_INTERVALS)
        for k, il in enumerate(lists):
            lo, hi = int(payload.offsets[k]), int(payload.offsets[k + 1])
            assert blob[lo:hi] == oracle.encode_intervals(il) + empty

    def test_roundtrips_agree(self, lists):
        payload = CompressedAprilPayload.from_approximations(self._objects(lists))
        fast = payload.decode_block(range(len(lists)))
        for k, il in enumerate(lists):
            ref = oracle.decode_one(payload, k)
            assert fast[k].p == ref.p == il
            assert len(fast[k].c) == len(ref.c) == 0

    def test_concatenated_stream_positions(self, lists):
        """A payload rebuilt from the oracle's stream alone puts every
        object where the oracle's decoder stops, and decodes it."""
        stream = b"".join(
            oracle.encode_intervals(il) + oracle.encode_intervals(EMPTY_INTERVALS)
            for il in lists[:500]
        )
        positions = [0]
        for il in lists[:500]:
            ref, pos = oracle.decode_intervals(stream, positions[-1])
            assert ref == il
            _, pos = oracle.decode_intervals(stream, pos)
            positions.append(pos)
        payload = CompressedAprilPayload.from_blob(
            self.GRID, np.frombuffer(stream, dtype=np.uint8), np.array(positions)
        )
        assert len(payload) == 500
        for il, fast in zip(lists[:500], payload.decode_block(range(500))):
            assert fast.p == il


# ----------------------------------------------------------------------
# dataset payloads
# ----------------------------------------------------------------------
class TestPayloadDifferential:
    def _payload_pairs(self, lists):
        """Consecutive lists paired into (p, c)-shaped pseudo-objects."""
        grid = RasterGrid(Box(0, 0, 1, 1), order=16)
        pairs = []
        for k in range(0, 2000, 2):
            pairs.append(
                AprilApproximation(grid=grid, p=lists[k], c=lists[k + 1])
            )
        return pairs

    def test_blob_matches_reference_streams(self, lists):
        objects = self._payload_pairs(lists)
        payload = CompressedAprilPayload.from_approximations(objects)
        streams = [
            oracle.encode_intervals(a.p) + oracle.encode_intervals(a.c)
            for a in objects
        ]
        assert payload.blob.tobytes() == b"".join(streams)
        assert payload.offsets.tolist() == [0] + np.cumsum(
            [len(stream) for stream in streams]
        ).tolist()

    def test_block_decode_roundtrips(self, lists):
        objects = self._payload_pairs(lists)
        payload = CompressedAprilPayload.from_approximations(objects)
        order = np.random.default_rng(5).permutation(len(objects))
        decoded = payload.decode_block(order.tolist())
        for k, a in zip(order.tolist(), decoded):
            assert a.p == objects[k].p
            assert a.c == objects[k].c

    def test_reference_decode_matches(self, lists):
        objects = self._payload_pairs(lists)
        payload = CompressedAprilPayload.from_approximations(objects)
        ref_decoded = [oracle.decode_one(payload, k) for k in range(len(objects))]
        fast_decoded = payload.decode_block(range(len(objects)))
        for ref, fast in zip(ref_decoded, fast_decoded):
            assert ref.p == fast.p
            assert ref.c == fast.c

    def test_from_blob_rebuilds_summary(self, lists):
        objects = self._payload_pairs(lists)
        payload = CompressedAprilPayload.from_approximations(objects)
        rebuilt = CompressedAprilPayload.from_blob(
            payload.grid, payload.blob, payload.offsets
        )
        for name in ("p_count", "c_count", "p_cells", "c_cells",
                     "p_first", "p_last", "c_first", "c_last", "flags"):
            assert (getattr(rebuilt, name) == getattr(payload, name)).all(), name

    def test_summary_table_values(self, real_approximations):
        payload = CompressedAprilPayload.from_approximations(real_approximations)
        for k, a in enumerate(real_approximations):
            assert int(payload.p_count[k]) == len(a.p)
            assert int(payload.c_count[k]) == len(a.c)
            if len(a.p):
                assert int(payload.p_first[k]) == int(a.p.starts[0])
                assert int(payload.p_last[k]) == int(a.p.ends[-1])
                assert int(payload.p_cells[k]) == int((a.p.ends - a.p.starts).sum())
            if len(a.c):
                assert int(payload.c_first[k]) == int(a.c.starts[0])
                assert int(payload.c_last[k]) == int(a.c.ends[-1])
                assert int(payload.c_cells[k]) == int((a.c.ends - a.c.starts).sum())
            assert bool(payload.flags[k] & FLAG_P_ALL) == (len(a.p) == 1)
            assert bool(payload.flags[k] & FLAG_PARTIAL) == (
                int((a.c.ends - a.c.starts).sum()) > int((a.p.ends - a.p.starts).sum())
            )

    def test_lazy_screens_match_eager_filter(self, real_approximations):
        """Decode-aware screens never change a filter verdict."""
        from repro.filters.intermediate import intermediate_filter_batch
        from repro.filters.mbr import MBRRelationship

        payload = CompressedAprilPayload.from_approximations(real_approximations)
        lazy = payload.approximations()
        n = len(real_approximations)
        cases = (
            (MBRRelationship.OVERLAP, False),
            (MBRRelationship.R_INSIDE_S, True),
            (MBRRelationship.R_CONTAINS_S, True),
            (MBRRelationship.CROSS, False),
            (MBRRelationship.EQUAL, False),
        )
        items_eager, items_lazy = [], []
        for i in range(n):
            for j in range(n):
                case, connected = cases[(i * n + j) % len(cases)]
                items_eager.append(
                    (case, real_approximations[i], real_approximations[j], connected)
                )
                items_lazy.append((case, lazy[i], lazy[j], connected))
        assert intermediate_filter_batch(items_lazy) == intermediate_filter_batch(
            items_eager
        )

    def test_block_decode_helper(self, real_approximations):
        payload = CompressedAprilPayload.from_approximations(real_approximations)
        lazy = payload.approximations()
        block_decode(lazy)
        for a, eager in zip(lazy, real_approximations):
            assert payload.is_decoded(a.index)
            assert a.p == eager.p
            assert a.c == eager.c


# ----------------------------------------------------------------------
# where on-disk bytes enter: sums past int64 are rejected, not wrapped
# ----------------------------------------------------------------------
class TestOverflowRejected:
    """A CRC-valid stream whose deltas sum past 2**63 used to decode —
    silently, through ``cumsum`` wrap-around — into an unsorted list
    with negative bounds, breaking the invariant every ``searchsorted``
    kernel's soundness rests on."""

    GRID = RasterGrid(Box(0, 0, 1, 1), order=9)
    #: One object: P = two intervals of gap 2**62 and length 2**62, C empty.
    STREAM = varint_encode(
        np.array([2, 1 << 62, 1 << 62, 1 << 62, 1 << 62, 0], dtype=np.int64)
    )

    def test_oracle_cannot_represent_it(self):
        # Python integers do not wrap; the array constructor refuses.
        with pytest.raises(OverflowError):
            oracle.decode_intervals(self.STREAM.tobytes())

    def test_from_blob_rejects_before_any_decode(self):
        offsets = np.array([0, self.STREAM.size], dtype=np.int64)
        with pytest.raises(ValueError, match="overflow"):
            CompressedAprilPayload.from_blob(
                self.GRID, self.STREAM, offsets
            ).decode_block([0])

    def _saved(self, path, values):
        """A well-formed, CRC-valid ``.npz`` around a hand-made stream
        (the summary is not persisted, so zeros will do)."""
        blob = varint_encode(np.asarray(values, dtype=np.int64))
        zeros = np.zeros(1, dtype=np.int64)
        summary = dict.fromkeys(
            ("p_count", "c_count", "p_cells", "c_cells",
             "p_first", "p_last", "c_first", "c_last"), zeros,
        )
        summary["flags"] = np.zeros(1, dtype=np.uint8)
        save_approximations(
            path,
            CompressedAprilPayload(
                self.GRID, blob, np.array([0, blob.size]), summary
            ),
        )
        return path

    def test_saved_payload_raises_or_rebuilds(self, tmp_path):
        path = self._saved(
            tmp_path / "wrapped.npz", [2, 1 << 62, 1 << 62, 1 << 62, 1 << 62, 0]
        )
        with pytest.raises(StoreError, match="overflow"):
            load_approximations(path, on_error="raise")
        assert load_approximations(path, on_error="rebuild") is None

    def test_saved_payload_beyond_grid_id_space(self, tmp_path):
        # Sorted and in range for int64, but not cells of an order-9 grid.
        cells = self.GRID.num_cells
        path = self._saved(tmp_path / "beyond.npz", [0, 1, cells, 1])
        with pytest.raises(StoreError, match="beyond"):
            load_approximations(path)
        assert load_approximations(path, on_error="rebuild") is None
        inside = self._saved(tmp_path / "inside.npz", [0, 1, cells - 1, 1])
        (only,) = load_approximations(inside)
        assert list(only.c) == [(cells - 1, cells)]

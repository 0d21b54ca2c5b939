"""Backward compatibility and repair for compressed payload storage.

PR 7 made the delta+varint blob the store's payload layout (format
version 2); since v1.4.0 it is the only layout written, while every
index built before — or with the old ``--payload-codec raw`` — keeps
its version-1 raw arrays on disk. These tests pin the compatibility
contract:

- a raw index (fixtures written by the v1 writer kept in
  ``tests/oracles/storage.py``) opens in a *fresh process* and
  warm-joins with stdout byte-identical to a varint index of the same
  data and ``repro_april_built_total == 0``;
- v1 manifests (no ``payload_codec`` field) open, their raw payloads
  load, and a payload the new build adds lands as varint beside them;
- no layer takes a codec any more;
- a corrupted compressed blob is detected (checksum/decompress error)
  and repaired by the PR 5 ``on_error="rebuild"`` path;
- the engine's payload LRU and the payload's bounded decoded cache
  keep warm joins cheap without unbounded memory;
- the payload file round-trips its lists and refuses mixed or
  mismatched grids.
"""

import json
import lzma
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_scenario
from repro.datasets.io import save_wkt_file
from repro.geometry import Box, Polygon
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.raster import RasterGrid, build_april
from repro.raster.compression import CompressedAprilPayload
from repro.raster.storage import (
    StoreError,
    load_approximations,
    payload_codec,
    save_approximations,
)
from repro.store import Engine, SpatialDataset, build_dataset, open_dataset

from tests.oracles.storage import save_raw_approximations

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def wkt_files(tmp_path_factory):
    data = load_scenario("OLE-OPE", scale=0.3, grid_order=10)
    base = tmp_path_factory.mktemp("store_compress")
    r_file, s_file = base / "r.wkt", base / "s.wkt"
    save_wkt_file(r_file, [o.polygon for o in data.r_objects])
    save_wkt_file(s_file, [o.polygon for o in data.s_objects])
    return r_file, s_file


@pytest.fixture
def metrics():
    set_metrics(True)
    reset_metrics()
    yield
    set_metrics(False)
    reset_metrics()


def counter(name_with_labels):
    return get_registry().counter_values().get(name_with_labels, 0)


def _rows(run):
    return [(l.r_index, l.s_index, l.relation, l.filtered) for l in run.results]


def to_raw_index(index_dir):
    """Make ``index_dir`` what ``build-index --payload-codec raw`` left
    behind before v1.4.0: every payload in the version-1 layout, the
    manifest and its catalog entries saying ``raw``."""
    for payload in (index_dir / "april").glob("*.npz"):
        save_raw_approximations(payload, load_approximations(payload))
    manifest_path = index_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["payload_codec"] = "raw"
    for entry in manifest["approximations"]:
        entry["codec"] = "raw"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")


def _build_pair(base, r_file, s_file, codec):
    build_dataset(r_file, base / "r_idx", grid_order=None)
    build_dataset(s_file, base / "s_idx", grid_order=None)
    # The cold join persists the shared-grid payloads into both dirs.
    Engine().join(base / "r_idx", base / "s_idx", grid_order=10)
    if codec == "raw":
        to_raw_index(base / "r_idx")
        to_raw_index(base / "s_idx")
    return base / "r_idx", base / "s_idx"


def _fresh_process_join(r_idx, s_idx, metrics_out=None):
    cmd = [
        sys.executable, "-m", "repro", "join",
        str(r_idx), str(s_idx), "--index", "--grid-order", "10",
    ]
    if metrics_out is not None:
        cmd += ["--metrics-out", str(metrics_out)]
    proc = subprocess.run(
        cmd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": REPO_SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestRawBackwardCompat:
    def test_raw_payload_is_version1_layout(self, tmp_path, wkt_files):
        r_file, s_file = wkt_files
        r_idx, _ = _build_pair(tmp_path, r_file, s_file, "raw")
        payloads = sorted((r_idx / "april").glob("*.npz"))
        assert payloads
        for f in payloads:
            assert payload_codec(f) == "raw"
            with np.load(f) as data:
                assert int(data["version"]) == 1
                # the exact pre-PR-7 member set — nothing extra
                assert set(data.files) == {
                    "version", "grid_order", "dataspace",
                    "p_offsets", "p_starts", "p_ends",
                    "c_offsets", "c_starts", "c_ends",
                }

    def test_fresh_process_warm_join_identical_and_warm(self, tmp_path, wkt_files):
        r_file, s_file = wkt_files
        raw_r, raw_s = _build_pair(tmp_path / "raw", r_file, s_file, "raw")
        var_r, var_s = _build_pair(tmp_path / "var", r_file, s_file, "varint")

        raw_metrics = tmp_path / "raw_metrics.json"
        var_metrics = tmp_path / "var_metrics.json"
        raw_out = _fresh_process_join(raw_r, raw_s, raw_metrics)
        var_out = _fresh_process_join(var_r, var_s, var_metrics)
        assert raw_out == var_out
        assert raw_out.strip()

        for path, codec in ((raw_metrics, "raw"), (var_metrics, "varint")):
            counters = {
                (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
                for c in json.loads(path.read_text())["counters"]
            }
            built = sum(v for (n, _), v in counters.items()
                        if n == "repro_april_built_total")
            assert built == 0, f"{codec} warm join rebuilt approximations"
            stored = sum(v for (n, labels), v in counters.items()
                         if n == "repro_payload_stored_bytes_total"
                         and ("codec", codec) in labels)
            assert stored > 0, f"{codec} stored-bytes counter missing"
        # Joining it left the raw index as it was: nothing re-encoded.
        assert all(payload_codec(f) == "raw" for f in (raw_r / "april").glob("*.npz"))

    def test_v1_manifest_opens_and_gets_varint_beside_raw(self, tmp_path, wkt_files):
        r_file, s_file = wkt_files
        build_dataset(r_file, tmp_path / "idx", grid_order=10)
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == 2
        assert manifest["payload_codec"] == "varint"
        assert [e["codec"] for e in manifest["approximations"]] == ["varint"]

        # Rewrite as a pre-PR-7 index: version 1, no codec fields, the
        # own-grid payload in the raw layout.
        to_raw_index(tmp_path / "idx")
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        del manifest["payload_codec"]
        for entry in manifest["approximations"]:
            del entry["codec"]
        manifest_path.write_text(json.dumps(manifest))
        (old_payload,) = (tmp_path / "idx" / "april").glob("*.npz")

        dataset = open_dataset(tmp_path / "idx")
        aprils = dataset.approximations(dataset.grid(10), on_error="raise")
        assert len(aprils) == len(dataset)
        assert payload_codec(old_payload) == "raw"  # loaded, not rewritten

        # A join against a partner adds the shared-grid payload — varint,
        # beside the raw one — and the rows are those of the source files.
        expected = Engine().join(r_file, s_file, grid_order=10)
        joined = Engine().join(tmp_path / "idx", s_file, grid_order=10)
        assert _rows(joined) == _rows(expected)
        codecs = {f.name: payload_codec(f) for f in (tmp_path / "idx" / "april").glob("*.npz")}
        assert sorted(codecs.values()) == ["raw", "varint"]
        manifest = json.loads(manifest_path.read_text())
        assert {e["file"]: e.get("codec") for e in manifest["approximations"]} == {
            f"april/{name}": (None if codec == "raw" else "varint")
            for name, codec in codecs.items()
        }

    def test_no_layer_takes_a_codec(self, tmp_path, wkt_files):
        r_file, _ = wkt_files
        with pytest.raises(TypeError):
            build_dataset(r_file, tmp_path / "idx", payload_codec="raw")
        dataset = build_dataset(r_file, tmp_path / "idx", grid_order=10)
        with pytest.raises(TypeError):
            SpatialDataset(list(dataset.geometries), payload_codec="raw")
        assert not hasattr(dataset, "payload_codec")
        aprils = dataset.approximations(dataset.grid(10))
        with pytest.raises(TypeError):
            save_approximations(tmp_path / "p.npz", aprils, codec="raw")
        with pytest.raises(TypeError):
            save_approximations(tmp_path / "p.npz", aprils, "raw")


class TestPayloadSize:
    def test_varint_is_3x_smaller_than_raw_on_a_fine_grid(self, tmp_path):
        # The size half of the retired compression benchmark, which is
        # deterministic: at grid order 14 the varint payloads of the
        # OLE-OPE pair are at least 3x smaller than the raw layout's.
        data = load_scenario("OLE-OPE", scale=0.4, grid_order=14)
        raw_bytes = varint_bytes = 0
        for side, objects in (("r", data.r_objects), ("s", data.s_objects)):
            aprils = [o.april for o in objects]
            save_approximations(tmp_path / f"{side}_varint.npz", aprils)
            save_raw_approximations(tmp_path / f"{side}_raw.npz", aprils)
            varint_bytes += (tmp_path / f"{side}_varint.npz").stat().st_size
            raw_bytes += (tmp_path / f"{side}_raw.npz").stat().st_size
            # Same intervals either way.
            for a, b in zip(load_approximations(tmp_path / f"{side}_raw.npz"),
                            load_approximations(tmp_path / f"{side}_varint.npz")):
                assert (a.p, a.c) == (b.p, b.c)
        assert raw_bytes / varint_bytes >= 3.0


class TestCorruptionRepair:
    def _corrupt_blob(self, path: Path) -> None:
        """Flip bytes inside the compressed stream, keeping the stored
        CRC — the payload's own checksum must catch it."""
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        blob = bytearray(lzma.decompress(members["blob"].tobytes()))
        blob[len(blob) // 2] ^= 0xFF
        members["blob"] = np.frombuffer(
            lzma.compress(bytes(blob), preset=6), dtype=np.uint8
        )
        buffer_path = path.with_suffix(".tmp")
        with open(buffer_path, "wb") as fh:
            np.savez(fh, **members)
        buffer_path.replace(path)

    def test_corrupt_blob_raises_checksum_error(self, tmp_path, wkt_files):
        r_file, _ = wkt_files
        dataset = build_dataset(r_file, tmp_path / "idx", grid_order=10)
        payload_file = next((tmp_path / "idx" / "april").glob("*.npz"))
        self._corrupt_blob(payload_file)
        with pytest.raises(StoreError, match="checksum"):
            load_approximations(payload_file)

    def test_corrupt_blob_rebuilt_with_counter(self, tmp_path, wkt_files, metrics):
        r_file, _ = wkt_files
        dataset = build_dataset(r_file, tmp_path / "idx", grid_order=10)
        grid = dataset.grid(10)
        before = dataset.approximations(grid)
        payload_file = next((tmp_path / "idx" / "april").glob("*.npz"))
        self._corrupt_blob(payload_file)

        fresh = open_dataset(tmp_path / "idx")
        repaired = fresh.approximations(grid)  # detects + rebuilds
        assert len(repaired) == len(before)
        for a, b in zip(repaired, before):
            assert a.p == b.p
            assert a.c == b.c
        assert counter('repro_resilience_rebuild_total{artifact="april_payload"}') >= 1
        # The rewritten payload is valid varint again.
        assert payload_codec(payload_file) == "varint"
        assert load_approximations(payload_file) is not None


class TestEngineCaches:
    def test_payload_lru_survives_object_set_rebuild(self, tmp_path, wkt_files, metrics):
        r_file, s_file = wkt_files
        r_idx, s_idx = _build_pair(tmp_path, r_file, s_file, "varint")
        engine = Engine()
        first = engine.join(r_idx, s_idx, grid_order=10)
        hits_before = counter(
            'repro_store_cache_total{cache="payload",outcome="hit"}'
        )
        # Evicting the object sets is the case the payload LRU exists
        # for: the rebuilt objects reattach the cached (already decoded)
        # approximation lists instead of re-reading the blobs.
        engine._objects.clear()
        second = engine.join(r_idx, s_idx, grid_order=10)
        hits_after = counter(
            'repro_store_cache_total{cache="payload",outcome="hit"}'
        )
        assert hits_after > hits_before
        rows = lambda run: [
            (l.r_index, l.s_index, l.relation, l.filtered) for l in run.results
        ]
        assert rows(first) == rows(second)

    def test_decoded_cache_bound_is_enforced(self, tmp_path, wkt_files):
        r_file, _ = wkt_files
        dataset = build_dataset(r_file, tmp_path / "idx", grid_order=10)
        aprils = dataset.approximations(dataset.grid(10))
        payload = aprils[0].payload
        # Re-load with a bound smaller than the full plain form.
        bound = payload.plain_nbytes // 4
        small = CompressedAprilPayload.from_blob(
            payload.grid, payload.blob, payload.offsets, max_decoded_bytes=bound
        )
        small.decode_block(range(len(small)))
        assert small._decoded_nbytes <= bound or len(small._decoded) == 1
        assert len(small._decoded) < len(small)

    def test_engine_override_reaches_payload(self, tmp_path, wkt_files):
        r_file, s_file = wkt_files
        r_idx, s_idx = _build_pair(tmp_path, r_file, s_file, "varint")
        engine = Engine(max_decoded_payload_bytes=4096)
        engine.join(r_idx, s_idx, grid_order=10)
        cached = [v for v in engine._payloads._data.values()]
        assert cached
        for aprils in cached:
            assert aprils[0].payload.max_decoded_bytes == 4096


class TestStorage:
    """``save_approximations``/``load_approximations`` on their own: the
    file format every index payload is written in."""

    def test_roundtrip_preserves_lists(self, tmp_path):
        grid = RasterGrid(Box(0, 0, 64, 64), order=8)
        polys = [
            Polygon.box(1, 1, 9, 9),
            Polygon([(20, 20), (30, 22), (25, 31)]),
            Polygon([(40, 40), (40.2, 40.1), (40.1, 40.3)]),  # empty P list
        ]
        approx = [build_april(p, grid) for p in polys]
        path = tmp_path / "approx.npz"
        save_approximations(path, approx)
        back = load_approximations(path)
        assert len(back) == len(approx)
        for a, b in zip(approx, back):
            assert a.p == b.p and a.c == b.c
            assert b.grid.compatible_with(grid)

    def test_empty_sequence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_approximations(tmp_path / "x.npz", [])

    @pytest.mark.parametrize(
        "other",
        [
            RasterGrid(Box(0, 0, 64, 64), order=9),  # other order
            RasterGrid(Box(0, 0, 65, 64), order=8),  # other dataspace
        ],
        ids=["order", "dataspace"],
    )
    def test_expected_grid_mismatch_rejected(self, tmp_path, other):
        grid = RasterGrid(Box(0, 0, 64, 64), order=8)
        path = tmp_path / "approx.npz"
        save_approximations(path, [build_april(Polygon.box(1, 1, 9, 9), grid)])
        assert len(load_approximations(path, expected_grid=grid)) == 1
        with pytest.raises(StoreError, match="built on grid"):
            load_approximations(path, expected_grid=other)
        assert load_approximations(path, expected_grid=other, on_error="rebuild") is None

    def test_mixed_grids_rejected(self, tmp_path):
        g1 = RasterGrid(Box(0, 0, 64, 64), order=8)
        g2 = RasterGrid(Box(0, 0, 64, 64), order=9)
        a = build_april(Polygon.box(1, 1, 5, 5), g1)
        b = build_april(Polygon.box(1, 1, 5, 5), g2)
        with pytest.raises(ValueError):
            save_approximations(tmp_path / "x.npz", [a, b])

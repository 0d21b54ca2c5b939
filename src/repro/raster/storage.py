"""Persistence for APRIL approximations.

The paper's preprocessing ("conducted once per object") pays off only
if approximations are stored and reloaded across join runs. This module
packs a whole dataset's P/C interval lists into one ``.npz`` file.
Two layouts exist on disk; one is written:

- ``varint`` (version 2, what :func:`save_approximations` writes): the
  dataset-level delta+varint blob of :class:`repro.raster.compression
  .CompressedAprilPayload` — one contiguous byte buffer plus per-object
  byte sizes, checksummed with CRC-32.
- ``raw`` (version 1, the pre-PR-7 layout): per-object interval arrays
  concatenated with offset indexes. Read-only: the product has no
  writer for it (tests build theirs with ``tests/oracles/storage.py``),
  and indexes that hold it keep opening and joining unchanged.

Either layout decodes in one pass, at load, into plain
:class:`~repro.raster.april.AprilApproximation` objects: the form a
fresh build has, so cold and warm joins run the same code.

Every load is validated: a payload with an unknown format version, a
missing array, a torn/truncated archive, a blob failing its checksum,
interval lists that are empty, unsorted, overlapping, overflow int64
or leave the grid's ``4**order`` cell ids
(:func:`repro.raster.intervals.check_lists`, for both layouts), or —
when the caller states the grid it is about to join on — a mismatched
grid raises a typed :class:`StoreError` instead of silently yielding
approximations that would compare garbage intervals. Callers that can
rebuild pass ``on_error="rebuild"`` to get ``None`` back instead of the
exception.

Writes are crash-safe: the payload is serialised in memory and lands
via :func:`repro.resilience.atomic.atomic_writer`, so a process killed
mid-persist leaves either the previous complete payload or none at all
— never a torn ``.npz``. The ``store.torn_write`` failpoint simulates
exactly the pre-atomic failure (a truncated archive at the final path)
for chaos tests.

Loads are auditable: ``repro_payload_stored_bytes_total`` counts the
on-disk bytes read per codec, and ``repro_payload_decoded_bytes_total``
the plain bytes decoded from them.
"""

from __future__ import annotations

import io
import logging
import lzma
import zipfile
import zlib
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.geometry.box import Box
from repro.obs.metrics import get_registry, metrics_enabled
from repro.raster.april import AprilApproximation
from repro.raster.compression import (
    CompressedAprilPayload,
    varint_decode,
    varint_encode,
)
from repro.raster.grid import RasterGrid
from repro.raster.intervals import check_lists, split_lists
from repro.resilience.atomic import atomic_write_bytes
from repro.resilience.failpoints import should_fire

log = logging.getLogger("repro.resilience")

#: Version 1 is the raw two-arrays-per-list layout; version 2 carries
#: the compressed dataset blob. Both remain readable.
_RAW_VERSION = 1
_COMPRESSED_VERSION = 2

#: The codec :func:`save_approximations` writes, recorded in every new
#: payload and manifest so older builds know how to read them.
PAYLOAD_CODEC = "varint"


class StoreError(ValueError):
    """A persisted spatial artifact cannot be used.

    Raised for stale format versions, grid mismatches against the grid
    a join is about to run on, corrupt payloads, and stale dataset
    indexes whose source files have changed. Subclasses ``ValueError``
    so pre-PR-4 callers that caught the untyped error keep working.
    """


def _observe_payload_bytes(path: Path, codec: str, approximations: list) -> None:
    if metrics_enabled():
        registry = get_registry()
        registry.inc(
            "repro_payload_stored_bytes_total", value=path.stat().st_size, codec=codec
        )
        registry.inc(
            "repro_payload_decoded_bytes_total",
            value=sum(a.nbytes for a in approximations),
            codec=codec,
        )


def save_approximations(
    path: str | Path,
    approximations: Sequence[AprilApproximation],
) -> None:
    """Write a dataset's approximations (plus their grid) to ``path`` as
    the version-2 compressed blob.

    All approximations must share one grid — the same requirement the
    filters impose at comparison time.
    """
    if isinstance(approximations, CompressedAprilPayload):
        compressed = approximations
    else:
        if not approximations:
            raise ValueError("nothing to save: empty approximation sequence")
        for a in approximations[1:]:
            a.check_compatible(approximations[0])
        compressed = CompressedAprilPayload.from_approximations(approximations)
    grid = compressed.grid
    ds = grid.dataspace
    # The stored form is deliberately minimal: the varint blob under
    # an outer LZMA filter, per-object byte sizes as a second varint
    # stream, and a CRC over the *uncompressed* blob. Members are
    # already entropy-coded, hence plain ``savez`` — zlib-ing them
    # again would only burn CPU.
    blob_bytes = compressed.blob.tobytes()
    buffer = io.BytesIO()
    np.savez(
        buffer,
        version=np.int64(_COMPRESSED_VERSION),
        codec=np.array(PAYLOAD_CODEC),
        grid_order=np.int64(grid.order),
        dataspace=np.array([ds.xmin, ds.ymin, ds.xmax, ds.ymax]),
        blob=np.frombuffer(
            lzma.compress(blob_bytes, preset=6), dtype=np.uint8
        ),
        sizes=varint_encode(np.diff(compressed.offsets)),
        blob_crc32=np.uint32(zlib.crc32(blob_bytes)),
    )
    payload = buffer.getvalue()
    path = Path(path)
    if should_fire("store.torn_write", key=path.name):
        # Simulate the pre-atomic failure mode: a process killed halfway
        # through a direct write leaves a truncated archive at the final
        # path. Chaos tests then verify that the *next* load detects the
        # torn payload and rebuilds instead of crashing or joining on it.
        path.write_bytes(payload[: max(1, len(payload) // 2)])
        return
    atomic_write_bytes(path, payload)


def load_approximations(
    path: str | Path,
    expected_grid: RasterGrid | None = None,
    on_error: str = "raise",
) -> list[AprilApproximation] | None:
    """Read approximations written by :func:`save_approximations`.

    Both payload layouts load transparently into the same plain
    approximations, decoded and checked in one pass.

    When ``expected_grid`` is given, the payload's recorded grid must
    be compatible with it (same order and dataspace) or a
    :class:`StoreError` is raised — without this check, a stale or
    copied ``.npz`` silently produces approximations whose Hilbert ids
    mean different cells than the join's grid, corrupting every filter
    verdict downstream.

    Any unusable payload — torn archive, missing array, checksum,
    version or grid mismatch — raises :class:`StoreError` by default.
    With ``on_error="rebuild"`` it returns ``None`` instead, telling
    the caller to rebuild the payload from the geometries.
    """
    if on_error not in ("raise", "rebuild"):
        raise ValueError(f"on_error must be 'raise' or 'rebuild', got {on_error!r}")
    try:
        return _read_payload(Path(path), expected_grid)
    except StoreError as exc:
        if on_error == "rebuild":
            log.warning("unusable approximation payload, rebuilding: %s", exc)
            return None
        raise


def payload_codec(path: str | Path) -> str:
    """The codec a stored payload was written with (``raw``/``varint``)."""
    try:
        with np.load(path) as data:
            version = int(data["version"])
            if version == _RAW_VERSION:
                return "raw"
            return str(data["codec"])
    except (zipfile.BadZipFile, OSError, EOFError, ValueError, KeyError) as exc:
        raise StoreError(f"{path}: corrupt approximation file: {exc}") from exc


def _read_payload(
    path: Path, expected_grid: RasterGrid | None
) -> list[AprilApproximation]:
    try:
        archive = np.load(path)
    except (zipfile.BadZipFile, OSError, EOFError, ValueError) as exc:
        # A torn write (process killed mid-persist before PR 8's atomic
        # writes, or a truncated copy) surfaces here as BadZipFile /
        # EOFError / "cannot load" ValueError.
        raise StoreError(f"{path}: corrupt approximation file: {exc}") from exc
    with archive as data:
        try:
            version = int(data["version"])
            if version not in (_RAW_VERSION, _COMPRESSED_VERSION):
                raise StoreError(
                    f"{path}: unsupported approximation file version {version} "
                    f"(this build reads versions {_RAW_VERSION} and "
                    f"{_COMPRESSED_VERSION})"
                )
            xmin, ymin, xmax, ymax = data["dataspace"].tolist()
            grid = RasterGrid(Box(xmin, ymin, xmax, ymax), order=int(data["grid_order"]))
            if expected_grid is not None and not grid.compatible_with(expected_grid):
                raise StoreError(
                    f"{path}: approximations were built on grid order {grid.order} "
                    f"over {grid.dataspace}, but the join runs on grid order "
                    f"{expected_grid.order} over {expected_grid.dataspace}"
                )
            if version == _RAW_VERSION:
                codec, approximations = "raw", _read_raw(data, grid)
            else:
                codec, approximations = "varint", _read_compressed(path, data, grid)
            _observe_payload_bytes(path, codec, approximations)
            return approximations
        except StoreError:
            raise
        except KeyError as exc:
            raise StoreError(f"{path}: corrupt approximation file: missing {exc}") from exc
        except (zipfile.BadZipFile, zlib.error, OSError, EOFError, ValueError) as exc:
            # Member decompression of a torn archive fails lazily, while
            # the arrays are being read — not at np.load time; a list
            # check failing lands here too.
            raise StoreError(f"{path}: corrupt approximation file: {exc}") from exc


def _read_raw(data, grid: RasterGrid) -> list[AprilApproximation]:
    lists = {}
    for prefix in ("p", "c"):
        offsets = data[f"{prefix}_offsets"]
        starts, ends = data[f"{prefix}_starts"], data[f"{prefix}_ends"]
        check_lists(starts, ends, offsets, grid.num_cells)
        lists[prefix] = split_lists(starts, ends, offsets)
    if len(lists["p"]) != len(lists["c"]):
        raise ValueError("P/C counts differ")
    return [
        AprilApproximation(grid=grid, p=p, c=c) for p, c in zip(lists["p"], lists["c"])
    ]


def _read_compressed(path: Path, data, grid: RasterGrid) -> list:
    codec = str(data["codec"])
    if codec != "varint":
        raise StoreError(f"{path}: unknown payload codec {codec!r}")
    try:
        blob_bytes = lzma.decompress(data["blob"].tobytes())
    except lzma.LZMAError as exc:
        raise StoreError(
            f"{path}: corrupt approximation file: payload blob fails to "
            f"decompress: {exc}"
        ) from exc
    if int(data["blob_crc32"]) != zlib.crc32(blob_bytes):
        raise StoreError(
            f"{path}: corrupt approximation file: payload blob fails its checksum"
        )
    blob = np.frombuffer(blob_bytes, dtype=np.uint8)
    try:
        sizes = varint_decode(np.ascontiguousarray(data["sizes"], dtype=np.uint8))
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return CompressedAprilPayload(grid, blob, offsets).to_approximations()
    except ValueError as exc:
        raise StoreError(f"{path}: corrupt approximation file: {exc}") from exc


__all__ = [
    "PAYLOAD_CODEC",
    "StoreError",
    "load_approximations",
    "payload_codec",
    "save_approximations",
]

"""Persistent spatial datasets: build once, query many times.

The paper's preprocessing is "conducted once per object", yet until
PR 4 the repo rebuilt APRIL approximations on every join construction
unless the caller hand-managed ``.npz`` paths. A :class:`SpatialDataset`
turns preprocessing into a build-once artifact: it bundles the
geometries, their MBRs and per-geometry facts, and APRIL P/C interval
payloads, and can persist the whole bundle into a versioned on-disk
index directory::

    index_dir/
      manifest.json      format version, counts, extent, content hash,
                         source fingerprint, payload catalog, and the
                         ``geometry_columns`` entry vouching for
                         geometries.bin
      geometries.wkt     canonical geometry dump (one WKT per line,
                         precision 17 — float64 round-trip exact); the
                         authoritative copy, and the repair source
      geometries.bin     the same geometries as flat arrays (coords,
                         offset tables, MBRs — repro.store.columns), so
                         opening reads and hashes instead of parsing
      april/
        g<order>_<ds>.npz  one payload per (grid order, dataspace),
                           written via raster.storage

A dataset may hold payloads for *several* grids: a join between two
datasets runs on the padded union of their extents, so the first
(cold) join against a new partner rasterises on the union grid and
persists that payload into the index — every later join against the
same partner loads it and performs zero rasterisation.

Identity is content-addressed, twice over:

- ``columns_sha256`` is the SHA-256 of the ``geometries.bin`` image
  (:meth:`GeometryColumns.to_bytes
  <repro.geometry.columns.GeometryColumns.to_bytes>`): the engine's
  cache key. An index has it verified in its manifest; a parsed file or
  an in-memory list hashes its columns once.
- ``content_hash`` is the SHA-256 of the canonical WKT dump (stable
  across formatting and storage): the manifest identity. It is computed
  only when asked for — by :meth:`SpatialDataset.save` — never by a join.

``source_sha256`` fingerprints the raw source file so a mutated source
invalidates the index (the engine then rebuilds it).

``save`` writes exactly the bytes ``content_hash`` hashes, so the raw
SHA-256 of an untouched ``geometries.wkt`` *is* the manifest's
``content_hash``. Opening an index verifies, in order:

1. the manifest parses, has a readable ``format_version``, and (when a
   source is given) still fingerprints that source;
2. ``geometries.wkt`` hashes to ``content_hash`` — raw bytes first; a
   dump whose bytes differ (reformatted by hand) is parsed and re-dumped
   canonically, and must hash to ``content_hash`` then;
3. with a ``geometry_columns`` entry ``{file, sha256, count, parts,
   rings, vertices}``: the named file hashes to ``sha256``, decodes to
   exactly those counts, and ``count`` equals the manifest's.

An index that passes 2 on raw bytes and has the entry never parses WKT:
it opens as :meth:`SpatialDataset.from_columns` — the dataset a parsed
``.wkt`` file becomes too — so boxes and per-geometry facts come from
the columns, both identities from the verified manifest, and
``geometries`` is a :class:`~repro.store.columns.LazyGeometries` that
builds a polygon when one is first read. An index without the entry
(written before the columnar file existed) parses the dump as it always
did; the manifest alone decides, and a read never upgrades an index —
re-run ``build-index`` for that. ``format_version`` stays 2: the dump
is intact, so builds that predate the entry ignore it and open the
index.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
import time
from functools import cached_property
from pathlib import Path
from typing import Sequence

from repro.geometry.box import Box
from repro.geometry.columns import GeometryColumns
from repro.geometry.polygon import Polygon
from repro.geometry.wkt import dumps_wkt, loads_wkt_geometry
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.trace import trace
from repro.raster.april import AprilColumns
from repro.raster.grid import RasterGrid, pad_dataspace
from repro.raster.storage import (
    PAYLOAD_CODEC,
    StoreError,
    load_approximations,
    save_approximations,
)
from repro.resilience.atomic import atomic_write_bytes, atomic_write_text
from repro.resilience.failpoints import maybe_crash
from repro.resilience.quarantine import QuarantineReport
from repro.store.columns import LazyGeometries, read_columns

log = logging.getLogger("repro.resilience")

#: Version 2 added the ``payload_codec`` field (PR 7); version-1
#: manifests, and the raw payloads such indexes contain, still open.
MANIFEST_VERSION = 2
_READABLE_MANIFEST_VERSIONS = (1, 2)
MANIFEST_NAME = "manifest.json"
GEOMETRY_NAME = "geometries.wkt"
COLUMNS_NAME = "geometries.bin"
APRIL_DIR = "april"
#: repr-exact float64 round trip, so the canonical dump (and therefore
#: the content hash) is stable across save/load cycles.
_WKT_PRECISION = 17


# ----------------------------------------------------------------------
# hashing and keys
# ----------------------------------------------------------------------
def content_hash(geometries: Sequence) -> str:
    """SHA-256 of the canonical WKT dump of ``geometries``."""
    h = hashlib.sha256()
    for g in geometries:
        h.update(dumps_wkt(g, precision=_WKT_PRECISION).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def file_sha256(path: str | Path) -> str:
    """SHA-256 of a file's raw bytes (source staleness fingerprint)."""
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def grid_key(grid: RasterGrid) -> str:
    """Filename-safe identity of a grid: order + dataspace digest."""
    ds = grid.dataspace
    digest = hashlib.sha256(
        struct.pack("<4d", ds.xmin, ds.ymin, ds.xmax, ds.ymax)
    ).hexdigest()[:12]
    return f"g{grid.order}_{digest}"


def _observe_cache(cache: str, outcome: str) -> None:
    if metrics_enabled():
        get_registry().inc("repro_store_cache_total", cache=cache, outcome=outcome)


def _observe_build(what: str, seconds: float) -> None:
    if metrics_enabled():
        get_registry().observe("repro_store_build_seconds", seconds, what=what)


def _observe_rebuild(artifact: str) -> None:
    if metrics_enabled():
        get_registry().inc("repro_resilience_rebuild_total", artifact=artifact)


# ----------------------------------------------------------------------
# source loading
# ----------------------------------------------------------------------
def load_geometry_columns(
    path: str | Path,
    strict: bool = True,
    quarantine: QuarantineReport | None = None,
) -> GeometryColumns:
    """The polygonal geometries of a ``.wkt`` or ``.geojson`` file, as
    columns (a ``.wkt`` file never becomes ``Polygon`` objects).

    ``strict=True`` (the default) aborts on the first malformed row;
    with ``strict=False`` malformed rows are skipped into ``quarantine``
    (see :mod:`repro.resilience.quarantine`) and the healthy remainder
    is returned.
    """
    from repro.datasets.io import read_wkt_columns

    p = Path(path)
    if quarantine is not None and not quarantine.source:
        quarantine.source = str(p)
    if p.suffix.lower() in (".geojson", ".json"):
        from repro.datasets.geojson import load_geojson
        from repro.geometry.multipolygon import MultiPolygon

        features = load_geojson(p, strict=strict, report=quarantine)
        columns = GeometryColumns.from_geometries(
            f.geometry for f in features if isinstance(f.geometry, (Polygon, MultiPolygon))
        )
    else:
        columns = read_wkt_columns(p, strict=strict, report=quarantine)
    if not len(columns):
        raise ValueError(f"{path}: no polygonal geometries found")
    return columns


def load_geometry_file(
    path: str | Path,
    strict: bool = True,
    quarantine: QuarantineReport | None = None,
) -> list:
    """:func:`load_geometry_columns` as ``Polygon``/``MultiPolygon``
    objects, for callers that want every exact geometry."""
    return list(LazyGeometries(load_geometry_columns(path, strict, quarantine)))


def _read_dump_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise StoreError(f"{path.parent}: index has no {path.name}") from None


def _parse_geometry_dump(path: Path, dump: bytes) -> list:
    """Parse the bytes of a ``geometries.wkt`` dump (one WKT per line)."""
    try:
        return [
            loads_wkt_geometry(line)
            for line in dump.decode("utf-8").split("\n")
            if line.strip()
        ]
    except ValueError as exc:
        raise StoreError(f"{path}: corrupt geometry dump: {exc}") from exc


# ----------------------------------------------------------------------
# the dataset
# ----------------------------------------------------------------------
class SpatialDataset:
    """A polygon collection plus everything a join needs precomputed.

    In-memory datasets (``path is None``) cache their derived bundles
    (columns, boxes, extent, identities) for the process lifetime;
    persistent datasets additionally load/store APRIL payloads in their
    index directory. ``content_hash`` and ``columns_sha256``, when the
    caller already knows them (a verified manifest, a fresh save), are
    taken as given instead of being recomputed.
    """

    def __init__(
        self,
        geometries: Sequence[Polygon],
        *,
        name: str = "dataset",
        path: str | Path | None = None,
        source: str | Path | None = None,
        source_sha256: str | None = None,
        content_hash: str | None = None,
        columns_sha256: str | None = None,
    ) -> None:
        if not isinstance(geometries, LazyGeometries):
            geometries = list(geometries)
        if not len(geometries):
            raise ValueError("a dataset must contain at least one geometry")
        self.geometries = geometries
        self.name = name
        self.path = Path(path) if path is not None else None
        self.source = Path(source) if source is not None else None
        self.source_sha256 = source_sha256
        self._content_hash = content_hash
        self._columns_sha256 = columns_sha256

    @classmethod
    def from_columns(cls, columns: GeometryColumns, **kwargs) -> "SpatialDataset":
        """The dataset over ``columns``: every per-geometry fact comes
        from the arrays, and a geometry is built on first access
        (:class:`~repro.store.columns.LazyGeometries`). What a parsed
        ``.wkt`` file and an opened index both become; ``kwargs`` are
        the constructor's."""
        return cls(LazyGeometries(columns), **kwargs)

    def __len__(self) -> int:
        return len(self.geometries)

    def __repr__(self) -> str:
        where = str(self.path) if self.path else "memory"
        return f"SpatialDataset({self.name!r}, {len(self)} geometries, {where})"

    # ------------------------------------------------------------------
    # identity and derived bundles
    # ------------------------------------------------------------------
    @property
    def content_hash(self) -> str:
        """SHA-256 of the canonical WKT dump: the manifest identity."""
        if self._content_hash is None:
            self._content_hash = content_hash(self.geometries)
        return self._content_hash

    @property
    def columns_sha256(self) -> str:
        """SHA-256 of the ``geometries.bin`` image: the cache identity."""
        if self._columns_sha256 is None:
            self._columns_sha256 = hashlib.sha256(self.columns.to_bytes()).hexdigest()
        return self._columns_sha256

    @cached_property
    def columns(self) -> GeometryColumns:
        if isinstance(self.geometries, LazyGeometries):
            return self.geometries.columns
        return GeometryColumns.from_geometries(self.geometries)

    # Per-geometry facts a join or ``repro stats`` asks of *every*
    # object, read off the columns: none of these builds a geometry.
    @cached_property
    def boxes(self) -> list[Box]:
        return [Box(*row) for row in self.columns.boxes.tolist()]

    @cached_property
    def connected(self) -> list[bool]:
        """``is_connected`` per geometry: what the filters need to know
        about the exact geometry of every candidate pair."""
        return self.columns.connected().tolist()

    @cached_property
    def num_vertices(self) -> list[int]:
        return self.columns.vertex_counts().tolist()

    @cached_property
    def extent(self) -> Box:
        return Box.union_all(self.boxes)

    def grid(self, order: int) -> RasterGrid:
        """The dataset's own grid: its padded extent at ``order``."""
        return RasterGrid(pad_dataspace(self.extent), order=order)

    # ------------------------------------------------------------------
    # approximations
    # ------------------------------------------------------------------
    def approximation_path(self, grid: RasterGrid) -> Path | None:
        if self.path is None:
            return None
        return self.path / APRIL_DIR / (grid_key(grid) + ".npz")

    def approximations(
        self,
        grid: RasterGrid,
        ids: Sequence[int] | None = None,
        workers: int | None = 1,
        on_error: str = "rebuild",
        partition_timeout: float | None = None,
        max_retries: int | None = None,
    ) -> AprilColumns:
        """APRIL lists on ``grid`` for the geometries ``ids`` (default:
        every one), one row each in ``ids`` order — loaded from the
        index when a valid payload exists, built (and, for persistent
        datasets, written back) otherwise; ``partition_timeout`` /
        ``max_retries`` bound the supervised build fan-out. Item ``k``
        of the store is row ``k``'s approximation, a view.

        An index's payload is whole-dataset: it is loaded, or built for
        every geometry and persisted, whatever ``ids`` asks for. An
        in-memory dataset rasterises only ``ids``.

        A payload that exists but cannot be used — torn by a crashed
        writer, built on a different grid, or counting a different
        number of geometries — is rebuilt from the geometries by
        default (counted in ``repro_resilience_rebuild_total``);
        ``on_error="raise"`` surfaces the :class:`StoreError` instead.
        """
        if on_error not in ("raise", "rebuild"):
            raise ValueError(f"on_error must be 'raise' or 'rebuild', got {on_error!r}")
        payload = self.approximation_path(grid)
        if payload is None:
            return self._build_approximations(
                grid, ids, workers, partition_timeout, max_retries
            )
        aprils = self._payload_approximations(
            grid, payload, workers, on_error, partition_timeout, max_retries
        )
        return aprils if ids is None else aprils.take(ids)

    def _payload_approximations(
        self,
        grid: RasterGrid,
        payload: Path,
        workers: int | None,
        on_error: str,
        partition_timeout: float | None,
        max_retries: int | None,
    ) -> AprilColumns:
        """Every geometry's lists from the index's payload for ``grid``,
        which is built and persisted first when missing or unusable."""
        if payload.exists():
            aprils = load_approximations(payload, expected_grid=grid, on_error=on_error)
            if aprils is not None and len(aprils) == len(self.geometries):
                _observe_cache("april_payload", "hit")
                return aprils
            if aprils is not None and on_error == "raise":
                raise StoreError(
                    f"{payload}: payload counts {len(aprils)} geometries, "
                    f"dataset has {len(self.geometries)}"
                )
            # Unusable payload (torn archive, foreign grid, stale count):
            # rebuild from the geometries and overwrite it below.
            _observe_rebuild("april_payload")
        _observe_cache("april_payload", "miss")
        aprils = self._build_approximations(
            grid, None, workers, partition_timeout, max_retries
        )
        # Persist, and serve the lists just built: a warm load decodes
        # to the same plain form, so cold and warm joins run the same
        # path.
        payload.parent.mkdir(parents=True, exist_ok=True)
        save_approximations(payload, aprils)
        self._register_payload(grid, payload)
        return aprils

    def payload_stats(self, grid: RasterGrid) -> dict | None:
        """Size accounting of the persisted payload for ``grid``.

        Returns ``None`` for in-memory datasets or before a payload
        exists; otherwise the on-disk bytes, the plain
        two-words-per-interval bytes the payload decodes to, and their
        ratio — the honest compression number ``build-index`` reports
        (the satellite fix: against *actual on-disk bytes*, not the
        codec-stream length).
        """
        from repro.raster.storage import payload_codec as read_codec

        payload = self.approximation_path(grid)
        if payload is None or not payload.exists():
            return None
        aprils = load_approximations(payload, expected_grid=grid, on_error="rebuild")
        if aprils is None:
            return None
        stored = payload.stat().st_size
        plain = aprils.nbytes
        return {
            "file": str(payload),
            "codec": read_codec(payload),
            "count": len(aprils),
            "stored_bytes": stored,
            "plain_bytes": plain,
            "bytes_per_object": stored / max(1, len(aprils)),
            "compression_ratio": plain / stored if stored else 1.0,
        }

    def _build_approximations(
        self,
        grid: RasterGrid,
        ids: Sequence[int] | None,
        workers: int | None,
        partition_timeout: float | None,
        max_retries: int | None,
    ) -> AprilColumns:
        from repro.parallel import build_april_parallel

        columns = self.columns if ids is None else self.columns.take(ids)
        t0 = time.perf_counter()
        with trace("store_build_april", count=len(columns), grid_order=grid.order):
            aprils = build_april_parallel(
                columns,
                grid,
                workers=workers,
                partition_timeout=partition_timeout,
                max_retries=max_retries,
            )
        _observe_build("april", time.perf_counter() - t0)
        return aprils

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _manifest(self) -> dict:
        ext = self.extent
        return {
            "format_version": MANIFEST_VERSION,
            "name": self.name,
            "count": len(self),
            "content_hash": self.content_hash,
            "source": str(self.source) if self.source else None,
            "source_sha256": self.source_sha256,
            "extent": [ext.xmin, ext.ymin, ext.xmax, ext.ymax],
            "payload_codec": PAYLOAD_CODEC,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "approximations": [],
        }

    def _write_manifest(self, manifest: dict) -> None:
        assert self.path is not None
        atomic_write_text(
            self.path / MANIFEST_NAME, json.dumps(manifest, indent=2) + "\n"
        )

    def _register_payload(self, grid: RasterGrid, payload: Path) -> None:
        """Record a freshly written payload in the manifest catalog."""
        assert self.path is not None
        manifest_path = self.path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        ds = grid.dataspace
        entry = {
            "file": str(payload.relative_to(self.path)),
            "grid_order": grid.order,
            "dataspace": [ds.xmin, ds.ymin, ds.xmax, ds.ymax],
            "count": len(self),
            "codec": PAYLOAD_CODEC,
        }
        entries = [
            e for e in manifest.get("approximations", []) if e["file"] != entry["file"]
        ]
        entries.append(entry)
        manifest["approximations"] = sorted(entries, key=lambda e: e["file"])
        self._write_manifest(manifest)

    def save(self, index_dir: str | Path) -> "SpatialDataset":
        """Persist geometries + manifest into ``index_dir``; returns the
        persistent dataset bound to that directory."""
        index_dir = Path(index_dir)
        index_dir.mkdir(parents=True, exist_ok=True)
        lines = [dumps_wkt(g, precision=_WKT_PRECISION) for g in self.geometries]
        dump = ("\n".join(lines) + "\n").encode("utf-8")
        blob = self.columns.to_bytes()
        # Both geometry files land atomically and the manifest last: a
        # crash anywhere in between leaves files the old manifest (or
        # none) does not vouch for, which open() refuses.
        atomic_write_bytes(index_dir / GEOMETRY_NAME, dump)
        maybe_crash("store.crash_mid_save", key=index_dir.name)
        atomic_write_bytes(index_dir / COLUMNS_NAME, blob)
        persistent = SpatialDataset(
            self.geometries,
            name=self.name,
            path=index_dir,
            source=self.source,
            source_sha256=self.source_sha256,
            # The dump's bytes are exactly what content_hash() hashes.
            content_hash=hashlib.sha256(dump).hexdigest(),
            columns_sha256=hashlib.sha256(blob).hexdigest(),
        )
        manifest = persistent._manifest()
        manifest["geometry_columns"] = {
            "file": COLUMNS_NAME,
            "sha256": persistent.columns_sha256,
            **self.columns.counts(),
        }
        persistent._write_manifest(manifest)
        return persistent

    @classmethod
    def open(
        cls,
        index_dir: str | Path,
        source: str | Path | None = None,
        on_error: str = "raise",
    ) -> "SpatialDataset":
        """Load a dataset from its index directory.

        Raises :class:`StoreError` when the manifest is missing or has
        an unknown format version, when the stored geometries — the
        dump, or the columnar file the manifest names — do not match
        the recorded hashes and counts, or when ``source`` is given
        and its bytes no longer match the recorded fingerprint (the
        index is stale; rebuild it).

        With ``on_error="rebuild"`` an unusable index is repaired in
        place instead: rebuilt from ``source`` when one is given and
        readable, else re-manifested from a readable ``geometries.wkt``
        dump (which rewrites ``geometries.bin`` from it too); only when
        neither recovery works does the original :class:`StoreError`
        propagate. Every repair is counted in
        ``repro_resilience_rebuild_total{artifact="dataset_index"}``.
        """
        if on_error not in ("raise", "rebuild"):
            raise ValueError(f"on_error must be 'raise' or 'rebuild', got {on_error!r}")
        try:
            return cls._open_strict(index_dir, source)
        except StoreError as exc:
            if on_error == "raise":
                raise
            log.warning("unusable dataset index, rebuilding: %s", exc)
            return cls._rebuild_index(Path(index_dir), source, exc)

    @staticmethod
    def _read_manifest(index_dir: Path) -> dict:
        manifest_path = index_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"{index_dir}: not a dataset index (no {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise StoreError(f"{manifest_path}: corrupt manifest: {exc}") from exc
        version = manifest.get("format_version")
        if version not in _READABLE_MANIFEST_VERSIONS:
            raise StoreError(
                f"{index_dir}: unsupported index format version {version!r} "
                f"(this build reads versions {list(_READABLE_MANIFEST_VERSIONS)})"
            )
        return manifest

    @classmethod
    def _open_strict(
        cls, index_dir: str | Path, source: str | Path | None
    ) -> "SpatialDataset":
        index_dir = Path(index_dir)
        manifest = cls._read_manifest(index_dir)
        if source is not None:
            fingerprint = file_sha256(source)
            if fingerprint != manifest.get("source_sha256"):
                raise StoreError(
                    f"{index_dir}: stale index — {source} has changed since the "
                    "index was built (content-hash mismatch); rebuild the index"
                )
        dump_path = index_dir / GEOMETRY_NAME
        dump = _read_dump_bytes(dump_path)
        recorded_hash = manifest.get("content_hash")
        geometries = None
        if hashlib.sha256(dump).hexdigest() != recorded_hash:
            # Not the bytes save() wrote. A dump reformatted by hand still
            # holds the same geometries: compare the canonical re-dump.
            geometries = _parse_geometry_dump(dump_path, dump)
            if content_hash(geometries) != recorded_hash:
                raise StoreError(
                    f"{index_dir}: corrupt index — stored geometries do not match "
                    "the manifest's content hash"
                )
        identity = dict(
            name=manifest.get("name", index_dir.name),
            path=index_dir,
            source=manifest.get("source"),
            source_sha256=manifest.get("source_sha256"),
            content_hash=recorded_hash,
        )
        entry = manifest.get("geometry_columns")
        if entry is not None:
            dataset = cls.from_columns(
                read_columns(index_dir, entry), columns_sha256=entry["sha256"], **identity
            )
        else:
            if geometries is None:
                geometries = _parse_geometry_dump(dump_path, dump)
            dataset = cls(geometries, **identity)
        if len(dataset) != manifest.get("count"):
            raise StoreError(
                f"{index_dir}: corrupt index — {len(dataset)} geometries stored, "
                f"manifest records {manifest.get('count')}"
            )
        return dataset

    @classmethod
    def _rebuild_index(
        cls, index_dir: Path, source: str | Path | None, cause: StoreError
    ) -> "SpatialDataset":
        """Repair an unusable index in place (``on_error="rebuild"``).

        Prefers the source file — it is the ground truth and covers every
        corruption, including a lost geometry dump; falls back to
        re-saving from a readable ``geometries.wkt`` (a bad columnar file
        under a manifest that still matches the dump is rewritten with the
        manifest's identity kept; anything else is re-manifested).
        Re-raises ``cause`` when neither exists intact.
        """
        if source is not None and Path(source).exists():
            src = Path(source)
            dataset = cls.from_columns(
                load_geometry_columns(src),
                name=src.stem,
                source=src,
                source_sha256=file_sha256(src),
            )
            persistent = dataset.save(index_dir)
            _observe_rebuild("dataset_index")
            return persistent
        geometry_path = index_dir / GEOMETRY_NAME
        try:
            dump = _read_dump_bytes(geometry_path)
            geometries = _parse_geometry_dump(geometry_path, dump)
        except StoreError:
            raise cause
        if not geometries:
            raise cause
        # A manifest that still vouches for this very dump (only the
        # columnar file was bad) keeps its identity; otherwise the dump is
        # all that is known, and the index is re-manifested around it.
        kept: dict = {}
        try:
            manifest = cls._read_manifest(index_dir)
        except StoreError:
            pass
        else:
            if manifest.get("content_hash") == hashlib.sha256(dump).hexdigest():
                kept = manifest
        persistent = cls(
            geometries,
            name=kept.get("name", index_dir.name),
            source=kept.get("source"),
            source_sha256=kept.get("source_sha256"),
        ).save(index_dir)
        _observe_rebuild("dataset_index")
        return persistent

    @classmethod
    def from_polygons(
        cls, polygons: Sequence[Polygon], name: str = "memory"
    ) -> "SpatialDataset":
        """An in-memory (non-persistent) dataset over ``polygons``."""
        return cls(polygons, name=name)


# ----------------------------------------------------------------------
# module-level helpers (the CLI's build-index entry points)
# ----------------------------------------------------------------------
def build_dataset(
    source: str | Path,
    index_dir: str | Path,
    *,
    grid_order: int | None = None,
    workers: int | None = 1,
    name: str | None = None,
    strict: bool = True,
    quarantine: QuarantineReport | None = None,
) -> SpatialDataset:
    """Build a persistent index for a ``.wkt``/``.geojson`` source file.

    With ``grid_order`` set, the APRIL payload for the dataset's *own*
    padded-extent grid is precomputed too (warm self-joins / selection);
    payloads for join-partner union grids are added lazily by the first
    cold join against each partner.
    """
    source = Path(source)
    t0 = time.perf_counter()
    columns = load_geometry_columns(source, strict=strict, quarantine=quarantine)
    dataset = SpatialDataset.from_columns(
        columns,
        name=name or source.stem,
        source=source,
        source_sha256=file_sha256(source),
    )
    persistent = dataset.save(index_dir)
    if grid_order is not None:
        persistent.approximations(persistent.grid(grid_order), workers=workers)
    _observe_build("dataset", time.perf_counter() - t0)
    return persistent


def open_dataset(
    index_dir: str | Path,
    source: str | Path | None = None,
    on_error: str = "raise",
) -> SpatialDataset:
    """Open a persisted dataset index (see :meth:`SpatialDataset.open`)."""
    return SpatialDataset.open(index_dir, source=source, on_error=on_error)


__all__ = [
    "APRIL_DIR",
    "COLUMNS_NAME",
    "GEOMETRY_NAME",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "SpatialDataset",
    "build_dataset",
    "content_hash",
    "file_sha256",
    "grid_key",
    "load_geometry_columns",
    "load_geometry_file",
    "open_dataset",
]

"""Out-of-core topology joins: PBSM-style disk partitioning.

For inputs that do not fit in memory, Partition Based Spatial-Merge
join [27] splits the dataspace into tiles, spills each input's
geometries to per-tile partition files, and then joins one tile at a
time — only a single tile pair is ever resident. Objects spanning
several tiles are replicated; the *reference-point rule* (a pair is
reported only by the tile containing the lower-left corner of its MBR
intersection) removes duplicates without any global state.

Partition files are plain WKT-per-line with an id column, so partial
runs are inspectable with standard tools; a ``meta.json`` records the
global extent and grid so all tiles share one Hilbert grid (APRIL
approximations must be comparable across tiles).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Sequence

from repro.geometry.box import Box
from repro.geometry.polygon import Polygon
from repro.geometry.wkt import dumps_wkt, loads_wkt_geometry
from repro.join.mbr_join import TileLayout, plane_sweep_mbr_join
from repro.join.objects import SpatialObject
from repro.join.pipeline import PIPELINES, verify_find_relation
from repro.join.run import JoinResult, JoinRun
from repro.join.stats import JoinRunStats
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.trace import trace
from repro.raster.april import build_april_many
from repro.raster.grid import RasterGrid, pad_dataspace
from repro.topology.de9im import TopologicalRelation

#: Disk-join rows are ordinary join results now (``r_id``/``s_id``
#: remain available as aliases); the old name stays importable.
DiskJoinResult = JoinResult


class DiskPartitionedJoin:
    """A PBSM-style join whose working set is one tile pair at a time."""

    def __init__(
        self,
        workdir: str | Path,
        tiles_per_dim: int = 4,
        grid_order: int = 11,
        method: str = "P+C",
    ) -> None:
        if tiles_per_dim < 1:
            raise ValueError("tiles_per_dim must be positive")
        if method not in PIPELINES:
            raise KeyError(f"unknown method {method!r}")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tiles_per_dim = tiles_per_dim
        self.grid_order = grid_order
        self.method = method
        self._extent: Box | None = None

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def partition(self, side: str, polygons: Sequence[Polygon], extent: Box) -> int:
        """Spill ``polygons`` into per-tile files for input ``side``.

        ``extent`` must be the (pre-agreed) global dataspace covering
        both inputs — it determines tiling and the shared grid. Returns
        the number of (object, tile) replicas written.
        """
        if side not in ("r", "s"):
            raise ValueError("side must be 'r' or 's'")
        self._write_meta(extent)
        layout = TileLayout(extent, self.tiles_per_dim)
        handles: dict[tuple[int, int], list[str]] = {}
        replicas = 0
        for oid, polygon in enumerate(polygons):
            tx0, ty0, tx1, ty1 = layout.tile_range(polygon.bbox)
            line = f"{oid}\t{dumps_wkt(polygon, precision=17)}"
            for tx in range(tx0, tx1 + 1):
                for ty in range(ty0, ty1 + 1):
                    handles.setdefault((tx, ty), []).append(line)
                    replicas += 1
        for (tx, ty), lines in handles.items():
            path = self._tile_path(side, tx, ty)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return replicas

    def _write_meta(self, extent: Box) -> None:
        meta_path = self.workdir / "meta.json"
        if meta_path.exists():
            stored = json.loads(meta_path.read_text())
            if stored["extent"] != [extent.xmin, extent.ymin, extent.xmax, extent.ymax]:
                raise ValueError("both inputs must be partitioned with the same extent")
            return
        meta_path.write_text(
            json.dumps(
                {
                    "extent": [extent.xmin, extent.ymin, extent.xmax, extent.ymax],
                    "tiles_per_dim": self.tiles_per_dim,
                    "grid_order": self.grid_order,
                }
            )
        )
        self._extent = extent

    def _load_meta(self) -> Box:
        if self._extent is None:
            stored = json.loads((self.workdir / "meta.json").read_text())
            self._extent = Box(*stored["extent"])
        return self._extent

    def _tile_path(self, side: str, tx: int, ty: int) -> Path:
        return self.workdir / f"{side}_{tx}_{ty}.part"

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, include_disjoint: bool = False) -> JoinRun:
        """Join all tile pairs; returns the deduplicated links and
        statistics in the same :class:`JoinRun` envelope every other
        execution mode produces (``results, stats = run`` still works)."""
        start = time.perf_counter()
        with trace(
            "disk_join", method=self.method, tiles_per_dim=self.tiles_per_dim
        ):
            results, stats, tiles_joined = self._run(include_disjoint)
        return JoinRun(
            results=results,
            stats=stats,
            method=self.method,
            mode="disk",
            wall_seconds=time.perf_counter() - start,
            partitions=tiles_joined,
            meta={
                "workdir": str(self.workdir),
                "tiles_per_dim": self.tiles_per_dim,
                "grid_order": self.grid_order,
            },
        )

    def _run(
        self, include_disjoint: bool
    ) -> tuple[list[JoinResult], JoinRunStats, int]:
        extent = self._load_meta()
        grid = RasterGrid(pad_dataspace(extent), order=self.grid_order)
        layout = TileLayout(extent, self.tiles_per_dim)

        total_stats = JoinRunStats(method=self.method)
        results: list[JoinResult] = []
        pipeline = PIPELINES[self.method]
        tiles_joined = 0
        loaded_r: set[int] = set()
        loaded_s: set[int] = set()
        touched_r: set[int] = set()
        touched_s: set[int] = set()

        registry = get_registry() if metrics_enabled() else None
        for tx in range(self.tiles_per_dim):
            for ty in range(self.tiles_per_dim):
                r_path = self._tile_path("r", tx, ty)
                s_path = self._tile_path("s", tx, ty)
                if not (r_path.exists() and s_path.exists()):
                    continue
                tiles_joined += 1
                with trace("tile", tx=tx, ty=ty) as tile_span:
                    r_objects = self._load_tile(r_path, grid)
                    s_objects = self._load_tile(s_path, grid)
                    pairs = plane_sweep_mbr_join(
                        [o.box for o in r_objects], [o.box for o in s_objects]
                    )
                    # Reference-point deduplication: only the owner
                    # tile of a pair reports it.
                    r_spans = [layout.tile_range(o.box) for o in r_objects]
                    s_spans = [layout.tile_range(o.box) for o in s_objects]
                    owned = [
                        (i, j)
                        for i, j in pairs
                        if layout.owner_tile(r_spans[i], s_spans[j]) == (tx, ty)
                    ]
                    if tile_span is not None:
                        tile_span.attrs.update(
                            r_objects=len(r_objects),
                            s_objects=len(s_objects),
                            pairs=len(pairs),
                            owned=len(owned),
                        )
                    if registry is not None:
                        # Owned-pair distribution across tiles: the
                        # skew signal of a partitioned disk join.
                        registry.observe(
                            "repro_tile_pairs", len(owned), method=self.method
                        )

                    verified = verify_find_relation(
                        pipeline,
                        r_objects,
                        s_objects,
                        owned,
                        label=f"{self.method} tile={tx},{ty}",
                    )
                    results.extend(
                        JoinResult(r_objects[i].oid, s_objects[j].oid, relation, filtered)
                        for i, j, relation, filtered in verified.rows
                        if include_disjoint or relation is not TopologicalRelation.DISJOINT
                    )
                    total_stats = total_stats.merge(verified.stats)
                    loaded_r.update(o.oid for o in r_objects)
                    loaded_s.update(o.oid for o in s_objects)
                    touched_r.update(r_objects[i].oid for i in verified.touched_r)
                    touched_s.update(s_objects[j].oid for j in verified.touched_s)
        # Objects spanning several tiles are replicated, so the per-tile
        # access counters merge() summed overcount; count dataset ids.
        total_stats.r_objects_total = len(loaded_r)
        total_stats.s_objects_total = len(loaded_s)
        total_stats.r_objects_accessed = len(touched_r)
        total_stats.s_objects_accessed = len(touched_s)
        results.sort(key=lambda link: (link.r_index, link.s_index))
        return results, total_stats, max(tiles_joined, 1)

    def _load_tile(self, path: Path, grid: RasterGrid) -> list[SpatialObject]:
        oids = []
        geometries = []
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                oid_text, wkt = line.split("\t", 1)
                oids.append(int(oid_text))
                geometries.append(loads_wkt_geometry(wkt))
        return [
            SpatialObject(oid=oid, polygon=geometry, box=geometry.bbox, april=april)
            for oid, geometry, april in zip(
                oids, geometries, build_april_many(geometries, grid)
            )
        ]


__all__ = ["DiskJoinResult", "DiskPartitionedJoin"]

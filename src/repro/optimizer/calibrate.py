"""Measure this machine and fit a :class:`CalibrationProfile`.

The harness runs the real executor — the same
:func:`~repro.parallel.run_find_relation_parallel` fan-out the engine
dispatches to — over two synthetic workloads of different
sizes, and fits each mode's ``startup + per_pair * pairs`` line through
the two measured points (min over repeats, so scheduler noise inflates
neither). On a single-core box the parallel measurement runs a real
2-worker pool and therefore *captures* the oversubscription penalty the
0.75× ``BENCH_parallel.json`` entry records — which is exactly what
makes the fitted model route auto-mode joins to serial here.

Calibration is deliberately cheap (a couple of seconds at the default
scale): the workloads are a few hundred candidate pairs of tessellation
cells against random blobs, enough to separate per-pair slope from
startup intercept without approaching benchmark runtimes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.geometry.box import Box
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import SpatialObject
from repro.optimizer.cost import CalibrationProfile, ModeCost
from repro.raster.grid import RasterGrid, pad_dataspace

#: Grid order the calibration workloads rasterise at: small enough to
#: keep calibration fast, fine enough that P+C filters do real work.
CALIBRATION_GRID_ORDER = 9

#: (tessellation cells per side, blob count) of the two fit workloads.
_SMALL = (4, 70)
_LARGE = (7, 260)


@dataclass
class _Workload:
    r_objects: list
    s_objects: list
    pairs: list


def _build_workload(rng: np.random.Generator, cells: int, blobs: int, scale: float) -> _Workload:
    from repro.datasets.synthetic import generate_blobs, generate_tessellation
    from repro.parallel import build_april_parallel

    cells = max(2, round(cells * scale))
    blobs = max(8, round(blobs * scale))
    region = Box(0.0, 0.0, 400.0, 400.0)
    r_polys = generate_tessellation(rng, region, cells, cells, edge_points=6)
    s_polys = generate_blobs(rng, blobs, region, (3, 25), (8, 40))
    extent = pad_dataspace(
        Box.union_all([p.bbox for p in r_polys] + [p.bbox for p in s_polys])
    )
    grid = RasterGrid(extent, order=CALIBRATION_GRID_ORDER)
    r_aprils = build_april_parallel(r_polys, grid, workers=1)
    s_aprils = build_april_parallel(s_polys, grid, workers=1)
    r_objects = [
        SpatialObject(oid=i, polygon=p, box=p.bbox, april=a)
        for i, (p, a) in enumerate(zip(r_polys, r_aprils))
    ]
    s_objects = [
        SpatialObject(oid=j, polygon=p, box=p.bbox, april=a)
        for j, (p, a) in enumerate(zip(s_polys, s_aprils))
    ]
    pairs = sorted(
        plane_sweep_mbr_join([o.box for o in r_objects], [o.box for o in s_objects])
    )
    return _Workload(r_objects=r_objects, s_objects=s_objects, pairs=pairs)


def _time_mode(mode: str, w: _Workload, workers: int, repeats: int) -> float:
    """Min wall seconds of one mode over ``repeats`` runs."""
    from repro.parallel import run_find_relation_parallel

    best = float("inf")
    for _ in range(max(1, repeats)):
        run = run_find_relation_parallel(
            "P+C",
            w.r_objects,
            w.s_objects,
            w.pairs,
            workers=1 if mode == "serial" else workers,
        )
        best = min(best, run.wall_seconds)
    return best


def _fit_line(p_small: int, t_small: float, p_large: int, t_large: float) -> ModeCost:
    """``startup + per_pair * pairs`` through two measured points.

    Degenerate fits (equal sizes, negative slope from noise) collapse to
    a pure per-pair rate so predictions stay monotone in the pair count.
    """
    if p_large > p_small and t_large > t_small:
        per_pair = (t_large - t_small) / (p_large - p_small)
        startup = max(0.0, t_small - per_pair * p_small)
    else:
        per_pair = t_large / max(1, p_large)
        startup = 0.0
    return ModeCost(startup=startup, per_pair=max(per_pair, 1e-9))


def measure_profile(
    *,
    workers: int | None = None,
    repeats: int = 2,
    scale: float = 1.0,
    include_disk: bool = False,
    rng_seed: int = 11,
) -> CalibrationProfile:
    """Measure serial/parallel (and optionally disk) costs here.

    ``workers`` is the parallel pool size to measure; the default picks
    ``min(4, cpu_count)`` but never less than two, so even a 1-core
    machine measures a *real* forked pool and records its overhead.
    ``scale`` shrinks or grows both fit workloads; ``include_disk``
    adds the out-of-core PBSM mode (slower to measure, off by default).
    """
    cpu = os.cpu_count() or 1
    if workers is None:
        workers = max(2, min(4, cpu))
    rng = np.random.default_rng(rng_seed)
    small = _build_workload(rng, *_SMALL, scale)
    large = _build_workload(rng, *_LARGE, scale)

    modes: dict[str, ModeCost] = {}
    samples: list[dict] = []
    for mode in ("serial", "parallel"):
        t_small = _time_mode(mode, small, workers, repeats)
        t_large = _time_mode(mode, large, workers, repeats)
        modes[mode] = _fit_line(len(small.pairs), t_small, len(large.pairs), t_large)
        samples.extend(
            [
                {"mode": mode, "pairs": len(small.pairs), "seconds": round(t_small, 6)},
                {"mode": mode, "pairs": len(large.pairs), "seconds": round(t_large, 6)},
            ]
        )
    if include_disk:
        t_small = _time_disk(small, repeats)
        t_large = _time_disk(large, repeats)
        disk = _fit_line(len(small.pairs), t_small, len(large.pairs), t_large)
        objects = len(large.r_objects) + len(large.s_objects)
        disk.per_object = max(0.0, disk.startup / max(1, objects))
        modes["disk"] = disk
        samples.extend(
            [
                {"mode": "disk", "pairs": len(small.pairs), "seconds": round(t_small, 6)},
                {"mode": "disk", "pairs": len(large.pairs), "seconds": round(t_large, 6)},
            ]
        )

    raster_per_object = _measure_raster(large, repeats)
    return CalibrationProfile(
        modes=modes,
        machine=CalibrationProfile.machine_fingerprint(),
        measured_workers=workers,
        raster_per_object=raster_per_object,
        source="calibrate",
        created=time.strftime("%Y-%m-%dT%H:%M:%S"),
        samples=samples,
    )


def _measure_raster(w: _Workload, repeats: int) -> float:
    """Per-object APRIL rasterisation seconds (the cold-path premium)."""
    from repro.parallel import build_april_parallel

    polygons = [o.polygon for o in w.s_objects]
    extent = pad_dataspace(Box.union_all([p.bbox for p in polygons]))
    grid = RasterGrid(extent, order=CALIBRATION_GRID_ORDER)
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        build_april_parallel(polygons, grid, workers=1)
        best = min(best, time.perf_counter() - t0)
    return best / max(1, len(polygons))


def _time_disk(w: _Workload, repeats: int) -> float:
    import tempfile

    from repro.join.diskjoin import DiskPartitionedJoin

    r_polys = [o.polygon for o in w.r_objects]
    s_polys = [o.polygon for o in w.s_objects]
    extent = Box.union_all([p.bbox for p in r_polys + s_polys])
    best = float("inf")
    for _ in range(max(1, repeats)):
        with tempfile.TemporaryDirectory(prefix="repro-calibrate-") as tmp:
            t0 = time.perf_counter()
            disk = DiskPartitionedJoin(
                tmp, tiles_per_dim=3, grid_order=CALIBRATION_GRID_ORDER, method="P+C"
            )
            disk.partition("r", r_polys, extent)
            disk.partition("s", s_polys, extent)
            disk.run(include_disjoint=False)
            best = min(best, time.perf_counter() - t0)
    return best


__all__ = ["CALIBRATION_GRID_ORDER", "measure_profile"]

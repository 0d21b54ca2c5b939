"""Seeded, benchmark-owned inputs for the four workloads.

Shapes come from ``repro.datasets.synthetic`` with the catalog's shape
parameters (radius, vertex and jitter ranges); only the *counts* were
tuned, so that one driver run (three set-ups + the measured rounds) fits
the time cap — see README.md, "Sizes and the shrink rule". The catalog's
fixed ``_SEEDS`` are not used, and the program under test only ever sees
the written ``.wkt`` files.

Every workload is one fixed map, drawn from ``default_rng([MAP_SEED,
workload, dataset])``. ``--seed`` then turns or mirrors the map (one of
the square region's eight symmetries) and renumbers the objects of both
datasets: every seed is a different pair of files with different
coordinates, identifiers and result rows, but the same join. Drawing the
shapes themselves from ``--seed`` was measured first and does not work
as a gate: blob sizes are heavy-tailed, the few pairs that reach
refinement carry the join, and their number moved by 16-24 % from seed
to seed (README.md, "Why the seed does not draw the map").
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import (
    generate_blobs,
    generate_buildings,
    generate_tessellation,
)
from repro.geometry.box import Box
from repro.geometry.polygon import Polygon

#: Which map every workload is drawn from. A claim that must also hold on
#: a map not used while a change was written is checked by changing this.
MAP_SEED = 20260926
SIDE = 1000.0
REGION = Box(0.0, 0.0, SIDE, SIDE)


def _count(base: int, scale: float) -> int:
    return max(8, int(round(base * scale)))


def _parks(key, count):
    return generate_blobs(
        np.random.default_rng([*key, 1]), count, REGION, radius_range=(0.8, 60.0),
        vertices_range=(10, 700), roughness=0.32,
    )


def _lakes_parks(key, scale):
    parks = _parks(key, _count(110, scale))
    lakes = generate_blobs(
        np.random.default_rng([*key, 0]), _count(180, scale), REGION,
        radius_range=(0.6, 25.0), vertices_range=(12, 520), roughness=0.28,
        hosts=parks, hosted_fraction=0.55,
    )
    return lakes, parks


def _buildings(n_buildings, n_parks):
    def generate(key, scale):
        parks = _parks(key, _count(n_parks, scale))
        buildings = generate_buildings(
            np.random.default_rng([*key, 0]), _count(n_buildings, scale), REGION,
            size_range=(0.6, 3.0), cluster_count=16, hosts=parks, hosted_fraction=0.4,
        )
        return buildings, parks

    return generate


def _counties_zips(key, scale):
    side = scale ** 0.5
    counties = generate_tessellation(
        np.random.default_rng([*key, 0]), REGION,
        nx=max(2, round(4 * side)), ny=max(2, round(3 * side)),
        corner_jitter=0.28, edge_points=max(8, round(200 * side)), edge_jitter=0.02,
    )
    zips = generate_tessellation(
        np.random.default_rng([*key, 1]), REGION,
        nx=max(3, round(10 * side)), ny=max(3, round(9 * side)),
        corner_jitter=0.3, edge_points=max(4, round(32 * side)), edge_jitter=0.04,
    )
    return counties, zips


def _placed(polygons, rng, turns: int, mirror: bool) -> list:
    """``polygons`` in a seeded order, each mirrored in x and then turned
    by ``turns`` quarter turns about the region's centre."""

    def move(ring):
        moved = []
        for x, y in ring:
            if mirror:
                x = SIDE - x
            for _ in range(turns):
                x, y = SIDE - y, x
            moved.append((x, y))
        return moved

    return [
        Polygon(move(polygons[k].shell), [move(hole) for hole in polygons[k].holes])
        for k in rng.permutation(len(polygons))
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Stream id in ``default_rng([MAP_SEED, index, dataset])``; never reuse one.
    index: int
    grid_order: int
    #: ``None`` runs find-relation; a name runs the ``relate_p`` join.
    predicate: str | None
    generate: Callable
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lakes_parks", 0, 12, None, _lakes_parks,
            "Few candidates, big high-vertex polygons, fine grid: import, "
            "parse, hash and APRIL build are most of a cold join, index open "
            "most of a warm one; load-path work shows here, filter/refine "
            "work must not.",
        ),
        Workload(
            "buildings_parks", 1, 11, None, _buildings(2000, 80),
            "Many cheap pairs: filters and DE-9IM split the warm join; MBR "
            "join, pair estimate and response serialisation are visible only "
            "here; batch filtering, wire and multi-core work shows here.",
        ),
        Workload(
            "counties_zips", 2, 9, None, _counties_zips,
            "Cells sharing long boundaries: the few undecided pairs are "
            "enormous, so DE-9IM refinement is nearly all of the warm join "
            "and rasterising dominates cold; filter speed-ups must not show "
            "here.",
        ),
        Workload(
            "buildings_in_parks", 3, 10, "inside", _buildings(1500, 70),
            "relate_p 'inside' (Fig. 6 filters, match list) on a coarse grid: "
            "a find-relation gain that costs relate_p, or a fine-grid gain "
            "that costs coarse grids, shows here.",
        ),
    )
}


@dataclass
class Inputs:
    workload: Workload
    r_polygons: list
    s_polygons: list
    r_path: Path
    s_path: Path
    generate_s: float
    write_s: float
    input_bytes: int
    input_sha256: str

    @property
    def vertices(self) -> int:
        return sum(p.num_vertices for p in self.r_polygons + self.s_polygons)

    def describe(self) -> str:
        return (
            f"{self.workload.name}: {len(self.r_polygons)} x "
            f"{len(self.s_polygons)} polygons, {self.vertices} vertices, "
            f"input_sha256 {self.input_sha256[:16]}"
        )


def make_inputs(workload: Workload, seed: int, scale: float, out_dir: Path) -> Inputs:
    """Generate the workload's two datasets and write them as WKT."""
    t0 = time.perf_counter()
    r_polygons, s_polygons = workload.generate([MAP_SEED, workload.index], scale)
    rng = np.random.default_rng([seed, workload.index])
    turns, mirror = int(rng.integers(4)), bool(rng.integers(2))
    r_polygons = _placed(r_polygons, rng, turns, mirror)
    s_polygons = _placed(s_polygons, rng, turns, mirror)
    t1 = time.perf_counter()
    r_path, s_path = out_dir / "r.wkt", out_dir / "s.wkt"
    save_wkt_file(r_path, r_polygons)
    save_wkt_file(s_path, s_polygons)
    t2 = time.perf_counter()
    data = r_path.read_bytes() + s_path.read_bytes()
    return Inputs(
        workload, r_polygons, s_polygons, r_path, s_path,
        generate_s=t1 - t0, write_s=t2 - t1, input_bytes=len(data),
        input_sha256=hashlib.sha256(data).hexdigest(),
    )

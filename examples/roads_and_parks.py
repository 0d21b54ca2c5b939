#!/usr/bin/env python3
"""Mixed-dimension topology: road networks against park areas.

The areal pipeline (Sec. 3) handles polygon pairs; DE-9IM itself spans
points and lines too. This example relates synthetic roads
(linestrings) to parks (polygons) with the mixed-dimension engine:
which roads cross a park, which run along its border, which stay
outside — and exports the links as GeoJSON.

Run:  python examples/roads_and_parks.py
"""

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from repro.datasets import load_dataset
from repro.datasets.geojson import Feature, save_geojson
from repro.datasets.synthetic import generate_roads
from repro.geometry import Box
from repro.topology.mixed import relate_mixed


def classify(road, park) -> str:
    m = relate_mixed(road, park)
    if m.II and m.IE:
        return "crosses"
    if m.II:
        return "within"
    if m.IB or m.BB:
        return "touches"
    return "disjoint"


def main() -> None:
    parks = load_dataset("OPE", scale=0.4).polygons
    rng = np.random.default_rng(31)
    roads = generate_roads(rng, 120, Box(0, 0, 1000, 1000))
    print(f"{len(roads)} roads x {len(parks)} parks")

    outcomes: Counter = Counter()
    road_links = []
    for road_id, road in enumerate(roads):
        for park_id, park in enumerate(parks):
            if not road.bbox.intersects(park.bbox):
                continue
            kind = classify(road, park)
            outcomes[kind] += 1
            if kind != "disjoint":
                road_links.append((road_id, park_id, kind))

    print("MBR-passing pair outcomes:", dict(outcomes))
    print("sample links:")
    for road_id, park_id, kind in road_links[:8]:
        print(f"  road#{road_id:<4} {kind:<8} park#{park_id}")

    # Export roads that cross any park, with their link info as props.
    crossing_ids = {road_id for road_id, _, kind in road_links if kind == "crosses"}
    out = Path(tempfile.mkdtemp(prefix="repro-roads-")) / "crossing_roads.geojson"
    save_geojson(
        out,
        [
            Feature(roads[road_id], {"road": road_id, "kind": "crosses"})
            for road_id in sorted(crossing_ids)
        ],
        indent=2,
    )
    print(f"\nwrote {len(crossing_ids)} park-crossing roads to {out}")


if __name__ == "__main__":
    main()

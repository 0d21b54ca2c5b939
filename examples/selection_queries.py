#!/usr/bin/env python3
"""Topological selection queries over one dataset.

Loads the synthetic EU-parks dataset once, then answers ad-hoc queries
like "which parks lie inside this viewport?" or "which parks touch this
administrative boundary?" through ``Engine.select`` — the relate_p loop
of the join (MBR window, APRIL filter, DE-9IM for what the filter leaves
open) run against one query polygon — with an explain trace for one
pair.

Run:  python examples/selection_queries.py
"""

from repro import Engine
from repro.datasets import load_dataset
from repro.geometry import Polygon
from repro.join.explain import explain_pair
from repro.join.objects import SpatialObject
from repro.store import SpatialDataset
from repro.topology import TopologicalRelation as T

GRID_ORDER = 11


def main() -> None:
    parks = load_dataset("OPE", scale=0.5).polygons
    print(f"loading {len(parks)} parks ...")
    # A dataset, not the list: a list is re-hashed on every query.
    dataset = SpatialDataset.from_polygons(parks)
    engine = Engine()

    viewport = Polygon.box(250, 250, 700, 700)
    for predicate in (T.INTERSECTS, T.INSIDE, T.MEETS, T.DISJOINT):
        run = engine.select(dataset, viewport, predicate, grid_order=GRID_ORDER)
        stats = run.stats
        print(
            f"parks {predicate.value:<12} viewport: {len(run):4d} "
            f"(MBR window {stats.pairs}, filter resolved {stats.resolved_if}, "
            f"refined {stats.refined})"
        )

    # Drill into one candidate with the explain trace, on the same grid.
    inside = engine.select(dataset, viewport, T.INSIDE, grid_order=GRID_ORDER)
    if inside.matches:
        park_id, _ = inside.matches[0]
        grid = dataset.grid(GRID_ORDER)
        park = engine.objects(dataset, grid)[park_id]
        query = SpatialObject.from_polygon(0, viewport, grid)
        print(f"\nwhy is park#{park_id} inside the viewport?")
        print(explain_pair(park, query).render())


if __name__ == "__main__":
    main()

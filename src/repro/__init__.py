"""repro — Scalable Spatial Topology Joins (EDBT 2026 reproduction).

A complete from-scratch Python implementation of the paper's raster
intermediate filter for spatial topology joins, together with every
substrate it depends on: a computational-geometry kernel, a DE-9IM
engine, the APRIL Hilbert-interval approximation, MBR join algorithms,
synthetic TIGER/OSM-style datasets and an experiment harness that
regenerates every table and figure of the paper's evaluation.

Quick tour (see ``examples/quickstart.py`` for a runnable version)::

    from repro import Polygon, Box, RasterGrid, SpatialObject, PIPELINES

    grid = RasterGrid(Box(0, 0, 100, 100), order=10)
    r = SpatialObject.from_polygon(0, Polygon.box(10, 10, 40, 40), grid)
    s = SpatialObject.from_polygon(1, Polygon.box(20, 20, 30, 30), grid)
    outcome = PIPELINES["P+C"].find_relation(r, s)   # -> contains, no DE-9IM

Package map:

- :mod:`repro.geometry`    — polygons, boxes, robust predicates, WKT
- :mod:`repro.topology`    — DE-9IM matrices, masks, the relate engine
- :mod:`repro.raster`      — Hilbert grid, rasteriser, APRIL P/C lists
- :mod:`repro.filters`     — MBR filter, Fig. 5 intermediate filters,
  Fig. 6 relate_p filters (the paper's contribution)
- :mod:`repro.join`        — MBR joins, the ST2/OP2/APRIL/P+C pipelines
- :mod:`repro.store`       — persistent dataset indexes + the warm-cache
  join :class:`Engine` (the recommended front door for repeated joins)
- :mod:`repro.datasets`    — synthetic TIGER/OSM analogues (Tables 2-3)
- :mod:`repro.experiments` — one module per table/figure of the paper

Canonical join entry points, all returning one :class:`JoinRun`
envelope regardless of execution mode::

    from repro import Engine

    engine = Engine()
    run = engine.join(r_polygons, s_polygons, mode="auto", workers=4)
    run = engine.join("r_index/", "s_index/")      # warm: no rasterising

The same envelope has a frozen, versioned wire form —
``run.to_wire()`` / :meth:`JoinRun.from_wire` (``api_version: 1``) —
which is what the long-lived HTTP join service speaks
(:mod:`repro.serve`, ``python -m repro serve``; see ``docs/serving.md``).
"""

from repro._lazy import lazy_exports
from repro.geometry import Box, Polygon, Ring, dumps_wkt, loads_wkt
from repro.join.objects import SpatialObject, make_objects
from repro.join.pipeline import PIPELINES, run_find_relation, run_relate
from repro.join.run import WIRE_VERSION, JoinResult, JoinRun
from repro.raster import AprilApproximation, IntervalList, RasterGrid, build_april
from repro.raster.storage import StoreError
from repro.store import (
    Engine,
    SpatialDataset,
    build_dataset,
    default_engine,
    open_dataset,
)
from repro.topology import DE9IM, TopologicalRelation, most_specific_relation, relate

__version__ = "1.13.0"

#: Public names whose modules no join runs — the HTTP daemon and its
#: wire codec. They resolve on first read (PEP 562), so
#: ``import repro`` — which every ``python -m repro`` start pays before
#: it reads its arguments — loads what a join over index directories
#: needs and nothing else.
_LAZY = {
    "API_VERSION": "repro.serve.schema",
    "JoinService": "repro.serve",
    "WireError": "repro.serve.schema",
    "dumps_wire": "repro.serve.schema",
    "loads_wire": "repro.serve.schema",
    "start_server": "repro.serve",
}


__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "API_VERSION",
    "AprilApproximation",
    "Box",
    "DE9IM",
    "Engine",
    "IntervalList",
    "JoinResult",
    "JoinRun",
    "JoinService",
    "PIPELINES",
    "Polygon",
    "RasterGrid",
    "Ring",
    "SpatialDataset",
    "SpatialObject",
    "StoreError",
    "TopologicalRelation",
    "WIRE_VERSION",
    "WireError",
    "__version__",
    "build_april",
    "build_dataset",
    "default_engine",
    "dumps_wire",
    "dumps_wkt",
    "loads_wire",
    "loads_wkt",
    "make_objects",
    "most_specific_relation",
    "open_dataset",
    "relate",
    "run_find_relation",
    "run_relate",
    "start_server",
]

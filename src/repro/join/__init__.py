"""Spatial topology join pipelines and the MBR filter-step join.

- :mod:`repro.join.objects` — the :class:`SpatialObject` record binding
  a polygon to its MBR and (optionally) its APRIL approximation.
- :mod:`repro.join.mbr_join` — the filter step [39]: an MBR
  intersection join producing the candidate pair stream. Its cost is
  excluded from all measurements, exactly as in the paper.
- :mod:`repro.join.pipeline` — the four evaluated find-relation methods
  (ST2, OP2, APRIL, P+C) and the relate_p pipelines of Sec. 3.3.
- :mod:`repro.join.stats` — per-run counters and stage timings.
"""

from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import SpatialObject, make_objects
from repro.join.pipeline import (
    PIPELINES,
    FindRelationOutcome,
    Pipeline,
    Stage,
    relate_predicate,
    run_find_relation,
    run_relate,
)
from repro.join.stats import JoinRunStats

__all__ = [
    "FindRelationOutcome",
    "JoinRunStats",
    "PIPELINES",
    "Pipeline",
    "SpatialObject",
    "Stage",
    "make_objects",
    "plane_sweep_mbr_join",
    "relate_predicate",
    "run_find_relation",
    "run_relate",
]

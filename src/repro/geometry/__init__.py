"""Computational-geometry substrate.

This package implements, from scratch, every geometric primitive the
topology-join pipeline needs: axis-aligned boxes (MBRs), robust
segment predicates, linear rings, polygons with holes, point-in-polygon
location, and WKT input/output.

The kernel is deliberately dependency-free (plain Python floats with an
adaptive exact-arithmetic fallback for orientation tests) so that the
whole reproduction runs anywhere Python runs.
"""

from repro.geometry.box import Box
from repro.geometry.multipolygon import MultiPolygon
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import Location, locate_point_in_polygon, locate_point_in_ring
from repro.geometry.ring import Ring
from repro.geometry.segment import (
    SegmentIntersection,
    SegmentIntersectionKind,
    orientation,
    point_on_segment,
    segment_intersection,
    segments_intersect,
)
from repro.geometry.wkt import dumps_wkt, loads_wkt, loads_wkt_geometry

__all__ = [
    "Box",
    "Location",
    "MultiPolygon",
    "Polygon",
    "Ring",
    "SegmentIntersection",
    "SegmentIntersectionKind",
    "dumps_wkt",
    "loads_wkt",
    "loads_wkt_geometry",
    "locate_point_in_polygon",
    "locate_point_in_ring",
    "orientation",
    "point_on_segment",
    "segment_intersection",
    "segments_intersect",
]

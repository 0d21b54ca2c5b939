"""APRIL raster-interval object approximations.

This package implements the paper's raster substrate [14]: a global
``2^k x 2^k`` grid whose cells are enumerated by a Hilbert curve, and a
per-object approximation made of two sorted lists of half-open Hilbert
intervals — the **Progressive** list ``P`` (cells entirely inside the
object) and the **Conservative** list ``C`` (all cells fully or
partially covered). Merge-join relations between interval lists
(*overlap*, *match*, *inside*, *contains*) run in linear time and are
the primitive operations of the paper's intermediate filters (Sec. 3.2).

Every hot-path primitive has one implementation here — vectorised
numpy kernels (:mod:`repro.raster.kernels`). The original scalar loops
are the oracles of the test tree (``tests/oracles``), differentially
tested against these.
"""

from repro.raster.april import AprilApproximation, AprilColumns, build_april, build_april_many
from repro.raster.compression import CompressedAprilPayload
from repro.raster.grid import RasterGrid, pad_dataspace
from repro.raster.hilbert import hilbert_d2xy, hilbert_xy2d, hilbert_xy2d_bulk
from repro.raster.intervals import IntervalList
from repro.raster.rasterize import RasterizationError, rasterize_polygon

__all__ = [
    "AprilApproximation",
    "AprilColumns",
    "CompressedAprilPayload",
    "IntervalList",
    "RasterGrid",
    "RasterizationError",
    "build_april",
    "build_april_many",
    "hilbert_d2xy",
    "hilbert_xy2d",
    "hilbert_xy2d_bulk",
    "pad_dataspace",
    "rasterize_polygon",
]

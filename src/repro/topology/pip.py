"""Bulk point-in-polygon classification.

The DE-9IM engine classifies many sub-edge midpoints against the same
polygon; doing that point-by-point in pure Python is the dominant cost.
This module vectorises the even-odd crossing test with numpy over all
ring edges at once (even-odd parity over shell *and* hole edges gives
exactly the polygon-with-holes interior).

Points that lie exactly on the boundary get an arbitrary side — callers
must only pass points known to be strictly off the boundary (the relate
algorithm guarantees this for the midpoints it classifies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.geometry.columns import GeometryColumns

if TYPE_CHECKING:  # pragma: no cover
    from repro.geometry.polygon import Polygon

Coord = tuple[float, float]

#: Below this many query points the scalar loop beats numpy dispatch.
_SCALAR_CUTOFF = 4

#: Cap on the (points x edges) matrix size per vectorised chunk (~24 MB).
_CHUNK_BUDGET = 3_000_000


def edge_arrays(
    geometries: Iterable["Polygon"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge coordinate arrays ``(ax, ay, bx, by)`` of every ring of
    ``geometries``, plus the ``offsets`` of each geometry's edges.

    Edges come in ``edges()`` order — geometry by geometry, ring by
    ring, each ring's implicit closing edge last — with the very float
    values the generator yields, from one flattening of the rings
    (:meth:`GeometryColumns.edge_arrays`) instead of one Python tuple
    per edge.
    """
    return GeometryColumns.from_geometries(geometries).edge_arrays()


def _edge_arrays(polygon: "Polygon") -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cached per-polygon edge coordinate arrays ``(ax, ay, bx, by)``."""
    cached = polygon.__dict__.get("_pip_edge_arrays")
    if cached is not None:
        return cached
    arrays = edge_arrays([polygon])[:4]
    polygon.__dict__["_pip_edge_arrays"] = arrays
    return arrays


def points_strictly_inside(points: Sequence[Coord], polygon: "Polygon") -> np.ndarray:
    """Even-odd interior test for every point in ``points``.

    Returns a boolean array: ``True`` where the point is in the interior
    of ``polygon`` (holes excluded). Points exactly on the boundary are
    *not* handled — see the module docstring.
    """
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n < _SCALAR_CUTOFF:
        from repro.geometry.predicates import Location

        return np.array([polygon.locate(p) is Location.INTERIOR for p in points])

    ax, ay, bx, by = _edge_arrays(polygon)
    pts = np.asarray(points, dtype=float)
    px = pts[:, 0]
    py = pts[:, 1]

    n_edges = len(ax)
    out = np.zeros(n, dtype=bool)
    chunk = max(1, _CHUNK_BUDGET // max(1, n_edges))
    for start in range(0, n, chunk):
        end = min(n, start + chunk)
        cx = px[start:end, None]
        cy = py[start:end, None]
        straddles = (ay[None, :] > cy) != (by[None, :] > cy)
        # Sign of (x_cross - x) * (by - ay) without dividing.
        t = (cy - ay[None, :]) * (bx - ax)[None, :] - (cx - ax[None, :]) * (by - ay)[None, :]
        t = np.where((by - ay)[None, :] < 0, -t, t)
        crossings = np.count_nonzero(straddles & (t > 0.0), axis=1)
        out[start:end] = (crossings & 1).astype(bool)
    return out


__all__ = ["edge_arrays", "points_strictly_inside"]

"""Bulk point-in-polygon classification.

The even-odd crossing test over all ring edges (parity over shell *and*
hole edges gives exactly the polygon-with-holes interior), for many
points at once. Each point tests only the edges that straddle its y —
the slab pass of :func:`repro.topology.kernel.slab_parity`, which the
DE-9IM kernel runs over a whole batch of geometries.

Points that lie exactly on the boundary get an arbitrary side — callers
must only pass points known to be strictly off the boundary (the relate
algorithm guarantees this for the midpoints it classifies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.geometry.columns import GeometryColumns
from repro.topology.kernel import slab_parity

if TYPE_CHECKING:  # pragma: no cover
    from repro.geometry.polygon import Polygon

Coord = tuple[float, float]


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


def points_strictly_inside(points: Sequence[Coord], polygon: "Polygon") -> np.ndarray:
    """Even-odd interior test for every point in ``points``.

    Returns a boolean array: ``True`` where the point is in the interior
    of ``polygon`` (holes excluded). Points exactly on the boundary are
    *not* handled — see the module docstring.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not len(pts):
        return np.zeros(0, dtype=bool)
    columns = GeometryColumns.from_geometries([polygon])
    return slab_parity(columns, np.zeros(len(pts), dtype=np.int64), pts[:, 0], pts[:, 1])


__all__ = ["edge_arrays", "points_strictly_inside"]

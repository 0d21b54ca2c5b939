"""The slab even-odd parity the batched DE-9IM kernel used until its
parity sorted the query points instead of the edges.

:func:`slab_parity` is the predecessor of
:func:`repro.topology.kernel.parity_many`, moved here verbatim: it cuts
each geometry's plane at its distinct vertex ys into slabs, sorts every
edge's end ys into them (``O(E log E)`` over all edges of the points'
geometries) and runs the same per-(edge, point) test, so the two must
return the same bits (``tests/test_parity_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.columns import GeometryColumns
from repro.topology.kernel import _expanded
from tests.oracles.edges import _gather

_I8 = np.int64


def slab_parity(columns: GeometryColumns, geoms: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Even-odd parity of point ``k`` against every edge of geometry
    ``geoms[k]`` (holes and parts included): True means inside for a
    point off the boundary. Each point meets only the edges of its slab."""
    out = np.zeros(len(px), dtype=bool)
    if not len(px):
        return out
    distinct, local = np.unique(geoms, return_inverse=True)
    owner, vertex, succ = _gather(columns, distinct)
    xy = columns.coords
    ax, ay, bx, by = xy[vertex, 0], xy[vertex, 1], xy[succ, 0], xy[succ, 1]
    # Slab boundaries: each geometry's distinct vertex ys, as exact
    # integer keys owner * M + rank of y; slab b runs from boundary b to
    # boundary b + 1 of the same geometry.
    ys, rank = np.unique(ay, return_inverse=True)
    m = len(ys) + 1
    key = owner * m + rank.reshape(-1)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    bounds = ordered[new]
    slab_at = np.empty(len(key), dtype=_I8)
    slab_at[order] = np.cumsum(new) - 1
    slab_end = slab_at[np.arange(len(key)) + (succ - vertex)]
    first, stop = np.minimum(slab_at, slab_end), np.maximum(slab_at, slab_end)

    slab = np.searchsorted(bounds, local * m + np.searchsorted(ys, py, side="right") - 1, "right") - 1
    valid = np.flatnonzero((slab >= 0) & (slab + 1 < len(bounds)))
    valid = valid[
        (bounds[slab[valid]] // m == local[valid]) & (bounds[slab[valid] + 1] // m == local[valid])
    ]
    # Points by slab: edge e straddles exactly the points of slabs
    # first[e] .. stop[e] - 1, a contiguous run.
    by_slab = valid[np.argsort(slab[valid], kind="stable")]
    run = slab[by_slab]
    lo, hi = np.searchsorted(run, first, "left"), np.searchsorted(run, stop, "left")
    crossings = np.zeros(len(px), dtype=_I8)
    for e, offset in _expanded(hi - lo):
        k = by_slab[lo[e] + offset]
        cx, cy = px[k], py[k]
        eax, eay, ebx, eby = ax[e], ay[e], bx[e], by[e]
        t = (cy - eay) * (ebx - eax) - (cx - eax) * (eby - eay)
        t = np.where((eby - eay) < 0, -t, t)
        crossings += np.bincount(k[t > 0.0], minlength=len(px))
    return (crossings & 1).astype(bool)

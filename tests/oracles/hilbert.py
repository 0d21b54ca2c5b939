"""The original bit-at-a-time bulk Hilbert loop.

Oracle for the lookup-table fast path of
:func:`repro.raster.hilbert.hilbert_xy2d_bulk`.
"""

from __future__ import annotations

import numpy as np


def hilbert_xy2d_bulk(order: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The original bit-at-a-time bulk loop (mutates its arguments)."""
    side = np.int64(1) << order
    d = np.zeros(x.shape, dtype=np.int64)
    s = side >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)

        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x_new = np.where(swap, y_f, x_f)
        y_new = np.where(swap, x_f, y_f)
        x, y = x_new, y_new
        s >>= 1
    return d

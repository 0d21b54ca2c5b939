"""The version-1 (raw) APRIL payload writer.

Until v1.4.0 this was the ``codec="raw"`` arm of
:func:`repro.raster.storage.save_approximations`. The product now
writes the varint layout only but still *reads* this one, so the tests
that prove raw indexes keep opening build their fixtures here.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.raster.intervals import IntervalList
from repro.resilience.atomic import atomic_write_bytes

_RAW_VERSION = 1


def save_raw_approximations(path: str | Path, approximations) -> None:
    """Write ``approximations`` (eager or lazy, one shared grid) to
    ``path`` in the version-1 flat-array layout."""
    grid = approximations[0].grid
    ds = grid.dataspace
    buffer = io.BytesIO()

    def pack(lists: list[IntervalList]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        for k, il in enumerate(lists):
            offsets[k + 1] = offsets[k] + len(il)
        starts = np.concatenate([il.starts for il in lists]) if offsets[-1] else np.empty(0, np.int64)
        ends = np.concatenate([il.ends for il in lists]) if offsets[-1] else np.empty(0, np.int64)
        return offsets, starts, ends

    p_off, p_starts, p_ends = pack([a.p for a in approximations])
    c_off, c_starts, c_ends = pack([a.c for a in approximations])
    np.savez_compressed(
        buffer,
        version=np.int64(_RAW_VERSION),
        grid_order=np.int64(grid.order),
        dataspace=np.array([ds.xmin, ds.ymin, ds.xmax, ds.ymax]),
        p_offsets=p_off, p_starts=p_starts, p_ends=p_ends,
        c_offsets=c_off, c_starts=c_starts, c_ends=c_ends,
    )
    atomic_write_bytes(Path(path), buffer.getvalue())

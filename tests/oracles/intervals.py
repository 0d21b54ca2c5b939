"""The original scalar merge loops over interval lists (Sec. 3.2).

Oracles for :mod:`repro.raster.kernels` / :class:`IntervalList`: each
function walks the two sorted lists with plain Python indexing, exactly
as the paper describes the merge joins. Arguments are
:class:`~repro.raster.intervals.IntervalList` objects (``coalesce``
takes raw arrays).
"""

from __future__ import annotations

import numpy as np

from repro.raster.intervals import IntervalList

_EMPTY_ARRAY = np.empty(0, dtype=np.int64)


def overlaps(x: IntervalList, y: IntervalList) -> bool:
    xs, xe = x.starts, x.ends
    ys, ye = y.starts, y.ends
    i = j = 0
    nx, ny = xs.size, ys.size
    while i < nx and j < ny:
        if xs[i] < ye[j] and ys[j] < xe[i]:
            return True
        if xe[i] <= ye[j]:
            i += 1
        else:
            j += 1
    return False


def inside(x: IntervalList, y: IntervalList) -> bool:
    xs, xe = x.starts, x.ends
    ys, ye = y.starts, y.ends
    ny = ys.size
    j = 0
    for i in range(xs.size):
        s = xs[i]
        e = xe[i]
        while j < ny and ye[j] < e:
            j += 1
        if j >= ny or not (ys[j] <= s and e <= ye[j]):
            return False
    return True


def matches(x: IntervalList, y: IntervalList) -> bool:
    return (
        x.starts.size == y.starts.size
        and bool(np.array_equal(x.starts, y.starts))
        and bool(np.array_equal(x.ends, y.ends))
    )


def intersection(x: IntervalList, y: IntervalList) -> IntervalList:
    xs, xe = x.starts, x.ends
    ys, ye = y.starts, y.ends
    i = j = 0
    out: list[tuple[int, int]] = []
    while i < xs.size and j < ys.size:
        lo = max(xs[i], ys[j])
        hi = min(xe[i], ye[j])
        if lo < hi:
            out.append((int(lo), int(hi)))
        if xe[i] <= ye[j]:
            i += 1
        else:
            j += 1
    return IntervalList(out)


def union(x: IntervalList, y: IntervalList) -> IntervalList:
    return IntervalList(list(x) + list(y))


def difference(x: IntervalList, y: IntervalList) -> IntervalList:
    out: list[tuple[int, int]] = []
    ys, ye = y.starts, y.ends
    j = 0
    for s, e in x:
        cur = s
        while j < ys.size and ye[j] <= cur:
            j += 1
        k = j
        while k < ys.size and ys[k] < e:
            if ys[k] > cur:
                out.append((cur, int(ys[k])))
            cur = max(cur, int(ye[k]))
            k += 1
        if cur < e:
            out.append((cur, e))
    return IntervalList(out)


def coalesce(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The original sort-and-merge construction loop."""
    pairs = sorted((int(s), int(e)) for s, e in zip(starts, ends))
    merged: list[list[int]] = []
    for s, e in pairs:
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1][1] = e
        else:
            merged.append([s, e])
    if not merged:
        return _EMPTY_ARRAY, _EMPTY_ARRAY
    return (
        np.array([m[0] for m in merged], dtype=np.int64),
        np.array([m[1] for m in merged], dtype=np.int64),
    )

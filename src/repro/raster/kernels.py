"""Vectorised APRIL kernels.

The Sec. 3.2 interval relations are linear merge-joins; the original
implementations walk them with Python ``while`` loops doing scalar
indexing into numpy arrays — interpreter dispatch *plus* per-element
``np.int64`` boxing on every step. This module rewrites them as
branch-free array kernels built on ``np.searchsorted`` over the sorted
interval bounds. They relate two lists at a time: the find-relation
filter runs a pair's Fig. 5 flow as a few such calls, and relate_p's
stream-wide bits are :mod:`repro.filters.pair_bits`.

All kernels take raw ``starts``/``ends`` arrays satisfying the
:class:`~repro.raster.intervals.IntervalList` invariant (sorted,
pairwise disjoint, maximally coalesced, half-open) and return plain
Python/numpy values; :class:`~repro.raster.intervals.IntervalList`
wraps them behind its public methods.

**The oracles.** The original loops live in the test tree
(``tests/oracles``), not here: the differential suite
(``tests/test_kernels_differential.py``) runs them against these
kernels on thousands of generated inputs, so the soundness of the
intermediate filter — which *proves* topological relations from these
primitives — is continuously checked against the slow-but-obvious code.

Why ``searchsorted`` is sound here: within one list the intervals are
disjoint and coalesced, so ``starts`` *and* ``ends`` are each strictly
increasing and interleave (``s0 < e0 < s1 < e1 < ...``). For a probe
interval ``[s, e)``, the y intervals it overlaps are exactly those with
``ys < e`` and ``ye > s`` — a contiguous index range
``[searchsorted(ye, s, 'right'), searchsorted(ys, e, 'left'))``.
"""

from __future__ import annotations

import numpy as np

#: Sentinel bound for interval complements; far above any Hilbert id
#: (``4**16 = 2**32``) yet safely inside int64.
_SENTINEL = np.int64(1) << 62

_EMPTY = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# pairwise relations
# ----------------------------------------------------------------------
def overlaps(
    xs: np.ndarray, xe: np.ndarray, ys: np.ndarray, ye: np.ndarray
) -> bool:
    """Some X interval shares a cell with some Y interval."""
    if xs.size == 0 or ys.size == 0:
        return False
    if xs.size > ys.size:  # probe with the smaller list into the larger
        xs, xe, ys, ye = ys, ye, xs, xe
    # [s, e) overlaps a y interval iff count(ys < e) > count(ye <= s).
    # ndarray methods, not np.* wrappers: the wrapper dispatch costs more
    # than the searchsorted itself on short lists.
    return bool(
        (ys.searchsorted(xe, "left") > ye.searchsorted(xs, "right")).any()
    )


def inside(
    xs: np.ndarray, xe: np.ndarray, ys: np.ndarray, ye: np.ndarray
) -> bool:
    """Every X interval is contained in one Y interval (empty X: True)."""
    if xs.size == 0:
        return True
    if ys.size == 0:
        return False
    # The only y interval that can contain [s, e) is the last one
    # starting at or before s (index ``count(ys <= s) - 1``), and because
    # the bounds interleave, containment holds iff that index equals
    # ``count(ye < e)`` — two searchsorted calls and one comparison.
    slot = ye.searchsorted(xe, "left")
    slot += 1
    return bool((ys.searchsorted(xs, "right") == slot).all())


def matches(
    xs: np.ndarray, xe: np.ndarray, ys: np.ndarray, ye: np.ndarray
) -> bool:
    """The two lists are identical."""
    return (
        xs.size == ys.size
        and bool(np.array_equal(xs, ys))
        and bool(np.array_equal(xe, ye))
    )


# ----------------------------------------------------------------------
# set operations
# ----------------------------------------------------------------------
def coalesce(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort and merge arbitrary nonempty intervals into canonical form.

    Touching (``e == s``) and overlapping intervals merge; the result is
    sorted, disjoint and non-adjacent. Pure array ops: argsort, a
    running-max scan, and one boundary mask.
    """
    if starts.size == 0:
        return _EMPTY, _EMPTY
    order = np.argsort(starts, kind="stable")
    s = starts[order]
    e = ends[order]
    reach = np.maximum.accumulate(e)
    # A new run begins wherever a start lies beyond everything seen.
    boundary = np.empty(s.size, dtype=bool)
    boundary[0] = True
    np.greater(s[1:], reach[:-1], out=boundary[1:])
    first = np.nonzero(boundary)[0]
    last = np.concatenate((first[1:], [s.size])) - 1
    return s[first], reach[last]


def runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of consecutive integers in sorted nonempty ``ids``
    as canonical half-open intervals. Repeats differ by zero, which
    never breaks a run, so ``ids`` need not be deduplicated first."""
    breaks = np.flatnonzero(np.diff(ids) > 1) + 1
    starts = ids[np.concatenate(([0], breaks))]
    ends = ids[np.concatenate((breaks - 1, [ids.size - 1]))] + 1
    return starts, ends


def intersection(
    xs: np.ndarray, xe: np.ndarray, ys: np.ndarray, ye: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise intersection of two canonical lists (canonical result)."""
    if xs.size == 0 or ys.size == 0:
        return _EMPTY, _EMPTY
    lo = np.searchsorted(ye, xs, side="right")
    hi = np.searchsorted(ys, xe, side="left")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    x_idx = np.repeat(np.arange(xs.size), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    y_idx = np.arange(total) - np.repeat(offsets[:-1], counts) + np.repeat(lo, counts)
    return (
        np.maximum(xs[x_idx], ys[y_idx]),
        np.minimum(xe[x_idx], ye[y_idx]),
    )


def union(
    xs: np.ndarray, xe: np.ndarray, ys: np.ndarray, ye: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise union of two canonical lists (canonical result)."""
    return coalesce(np.concatenate((xs, ys)), np.concatenate((xe, ye)))


def difference(
    xs: np.ndarray, xe: np.ndarray, ys: np.ndarray, ye: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cells of X not in Y: X intersected with Y's complement."""
    if xs.size == 0 or ys.size == 0:
        return xs.copy(), xe.copy()
    comp_starts = np.concatenate(([-_SENTINEL], ye))
    comp_ends = np.concatenate((ys, [_SENTINEL]))
    return intersection(xs, xe, comp_starts, comp_ends)


__all__ = [
    "coalesce",
    "difference",
    "inside",
    "intersection",
    "matches",
    "overlaps",
    "runs",
    "union",
]

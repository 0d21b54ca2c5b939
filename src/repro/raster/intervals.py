"""Sorted disjoint interval lists and their merge-join relations.

An :class:`IntervalList` is the storage form of an APRIL approximation:
half-open integer intervals ``[start, end)`` over Hilbert cell ids,
sorted, pairwise disjoint and maximally coalesced. The four relations of
Sec. 3.2 — *overlap*, *match*, *inside*, *contains* — are single-pass
merge joins, each ``O(|X| + |Y|)`` exactly because the intervals within
a list are disjoint and sorted.

Every relation and set operation is one vectorised
``searchsorted``-based kernel (:mod:`repro.raster.kernels`); the
original scalar merge loops are the oracles of ``tests/oracles``, and
the differential suite (``tests/test_kernels_differential.py``) asserts
the two agree on thousands of generated inputs.

All boolean predicates return plain Python ``bool`` — numpy scalars
never leak across this API boundary (``np.bool_`` is truthy-compatible
but breaks ``is True`` checks and JSON serialisation downstream).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.raster import kernels


class IntervalList:
    """An immutable sorted list of disjoint half-open intervals.

    Internally two parallel numpy int64 arrays (``starts``, ``ends``).
    """

    __slots__ = ("starts", "ends")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()) -> None:
        pairs = np.asarray(
            intervals if isinstance(intervals, np.ndarray) else list(intervals),
            dtype=np.int64,
        ).reshape(-1, 2)
        starts = pairs[:, 0]
        ends = pairs[:, 1]
        bad = starts >= ends
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"empty or inverted interval [{starts[k]}, {ends[k]})")
        self.starts, self.ends = kernels.coalesce(starts, ends)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_cells(cell_ids: Iterable[int] | np.ndarray) -> "IntervalList":
        """Coalesce individual cell ids (any order, repeats allowed)
        into maximal intervals."""
        ids = np.sort(np.asarray(list(cell_ids) if not isinstance(cell_ids, np.ndarray) else cell_ids, dtype=np.int64))
        if ids.size == 0:
            return EMPTY_INTERVALS
        return IntervalList._from_arrays(*kernels.runs(ids))

    @staticmethod
    def _from_arrays(starts: np.ndarray, ends: np.ndarray) -> "IntervalList":
        result = IntervalList.__new__(IntervalList)
        result.starts = starts
        result.ends = ends
        return result

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.starts.size)

    def __bool__(self) -> bool:
        return self.starts.size > 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for s, e in zip(self.starts.tolist(), self.ends.tolist()):
            yield (s, e)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalList):
            return NotImplemented
        return self.matches(other)

    def __hash__(self) -> int:
        return hash((self.starts.tobytes(), self.ends.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(f"[{s},{e})" for s, e in list(self)[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"IntervalList({preview}{suffix} | {len(self)} intervals)"

    @property
    def cell_count(self) -> int:
        """Total number of cells covered."""
        return int((self.ends - self.starts).sum())

    @property
    def nbytes(self) -> int:
        """Storage size: two 64-bit words per interval (paper Table 2)."""
        return int(self.starts.nbytes + self.ends.nbytes)

    def covers_cell(self, cell_id: int) -> bool:
        """True iff ``cell_id`` lies in some interval (binary search)."""
        idx = int(np.searchsorted(self.starts, cell_id, side="right")) - 1
        return bool(idx >= 0 and cell_id < self.ends[idx])

    def iter_cells(self) -> Iterator[int]:
        for s, e in self:
            yield from range(s, e)

    # ------------------------------------------------------------------
    # Sec. 3.2 relations
    # ------------------------------------------------------------------
    def overlaps(self, other: "IntervalList") -> bool:
        """'X,Y overlap': some pair of intervals shares a cell id."""
        return kernels.overlaps(self.starts, self.ends, other.starts, other.ends)

    def matches(self, other: "IntervalList") -> bool:
        """'X,Y match': the two lists are identical."""
        return kernels.matches(self.starts, self.ends, other.starts, other.ends)

    def inside(self, other: "IntervalList") -> bool:
        """'X inside Y': every interval of X is contained in one of Y.

        An empty X is vacuously inside anything.
        """
        return kernels.inside(self.starts, self.ends, other.starts, other.ends)

    def contains(self, other: "IntervalList") -> bool:
        """'X contains Y': inverse of 'Y inside X'."""
        return other.inside(self)

    # ------------------------------------------------------------------
    # set operations (used by tests and diagnostics)
    # ------------------------------------------------------------------
    def intersection(self, other: "IntervalList") -> "IntervalList":
        return IntervalList._from_arrays(
            *kernels.intersection(self.starts, self.ends, other.starts, other.ends)
        )

    def union(self, other: "IntervalList") -> "IntervalList":
        return IntervalList._from_arrays(
            *kernels.union(self.starts, self.ends, other.starts, other.ends)
        )

    def difference(self, other: "IntervalList") -> "IntervalList":
        return IntervalList._from_arrays(
            *kernels.difference(self.starts, self.ends, other.starts, other.ends)
        )


#: Shared empty list (e.g. the P list of a thin polygon with no full cells).
EMPTY_INTERVALS = IntervalList()

__all__ = ["EMPTY_INTERVALS", "IntervalList"]

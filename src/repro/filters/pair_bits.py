"""The per-pair bits of the filter decision trees, for a whole stream.

A Fig. 6 flow (:mod:`repro.filters.relate_filters`) reads a handful of
yes/no facts per candidate pair: how the two MBRs relate, whether both
shapes are connected, and the Sec. 3.2 relations of their APRIL lists
(*overlap*, *inside*, *match*, ``P ≠ ∅``). :class:`PairBits` computes
any of them for any subset of a stream's pairs in a few numpy passes.

**Packing.** The distinct objects of one call form two sides, r and s.
Each side's boxes and connectivity are arrays indexed by the object's
*slot*; its P and C lists are packed into CSR arrays (``starts`` and
``ends`` back to back, ``offsets`` per slot) the first time a bit reads
them. A pair is two slots, one per side.

**One keyed search per bit.** Cell ids lie below ``4**16 = 2**32`` on
every grid (order ≤ 16), so an interval bound is at most ``2**32``, and
the key ``slot * 2**33 + bound`` puts each list's bounds strictly
between those of the lists around it. One ``searchsorted`` over a
side's keyed bounds then searches every pair's *own* list at once: the
lists before it add the same count to both sides of each comparison of
:mod:`repro.raster.kernels`, and the lists after it add nothing. The
probe side's intervals are expanded pair by pair, and one scatter folds
the per-interval answers back into one bit per pair.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)

#: Key stride between two slots' bounds: above every bound (≤ 2**32).
_KEY = np.int64(1) << 33

#: Probe intervals per expanded pass; a pair whose own list alone is
#: longer is a pass of its own. Tests monkeypatch it to 1.
_BUDGET = 1 << 20


class PackedLists:
    """One side's interval lists of one kind as CSR arrays."""

    __slots__ = ("starts", "ends", "offsets", "lengths", "_keyed")

    def __init__(self, lists: Sequence) -> None:
        starts = [il.starts for il in lists]
        self.lengths = np.fromiter(map(len, starts), np.int64, len(starts))
        self.offsets = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=self.offsets[1:])
        self.starts = np.concatenate(starts or [_EMPTY])
        self.ends = np.concatenate([il.ends for il in lists] or [_EMPTY])
        self._keyed: tuple[np.ndarray, np.ndarray] | None = None

    def keyed(self) -> tuple[np.ndarray, np.ndarray]:
        """``starts`` and ``ends`` keyed by slot (sorted, see above)."""
        if self._keyed is None:
            slot = np.repeat(np.arange(self.lengths.size, dtype=np.int64) * _KEY, self.lengths)
            self._keyed = (slot + self.starts, slot + self.ends)
        return self._keyed

    def expand(self, slots: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every interval of the lists ``slots`` names, as ``(owner,
        index)``: ``owner`` the position in ``slots`` of its list,
        ``index`` its position in ``starts``/``ends``; in passes of at
        most ``_BUDGET`` intervals."""
        lengths = self.lengths[slots]
        cum = np.cumsum(lengths)
        start = done = 0
        while start < slots.size:
            stop = max(int(np.searchsorted(cum, done + _BUDGET, "right")), start + 1)
            lens = lengths[start:stop]
            if cum[stop - 1] > done:
                owner = np.repeat(np.arange(start, stop), lens)
                first = self.offsets[slots[start:stop]] - (cum[start:stop] - lens - done)
                yield owner, np.repeat(first, lens) + np.arange(cum[stop - 1] - done)
            start, done = stop, int(cum[stop - 1])


class Side:
    """The distinct objects of one side of a stream, by slot."""

    __slots__ = ("boxes", "connected", "aprils", "_packed")

    def __init__(self, boxes, connected, aprils: Sequence) -> None:
        self.boxes = np.fromiter(
            chain.from_iterable((b.xmin, b.ymin, b.xmax, b.ymax) for b in boxes), np.float64
        ).reshape(-1, 4)
        self.connected = np.asarray(connected, dtype=bool)
        self.aprils = aprils
        self._packed: dict[str, PackedLists] = {}

    def lists(self, kind: str) -> PackedLists:
        """The ``"P"`` or ``"C"`` lists, packed on first use."""
        packed = self._packed.get(kind)
        if packed is None:
            attr = kind.lower()
            packed = self._packed[kind] = PackedLists([getattr(a, attr) for a in self.aprils])
        return packed


def _intersects(r, s):
    return (r[0] <= s[2]) & (s[0] <= r[2]) & (r[1] <= s[3]) & (s[1] <= r[3])


def _contains(outer, inner):
    return (
        (outer[0] <= inner[0]) & (inner[2] <= outer[2])
        & (outer[1] <= inner[1]) & (inner[3] <= outer[3])
    )


def _strictly_contains(outer, inner):
    return (
        (outer[0] < inner[0]) & (inner[2] < outer[2])
        & (outer[1] < inner[1]) & (inner[3] < outer[3])
    )


def _equal(r, s):
    return (r[0] == s[0]) & (r[1] == s[1]) & (r[2] == s[2]) & (r[3] == s[3])


def _cross(r, s):
    """The Fig. 4 CROSS case, :meth:`~repro.geometry.box.Box.crosses`:
    crossing boxes are never disjoint, equal or nested, so the earlier
    cases of :func:`~repro.filters.mbr.classify_mbr_pair` never apply."""
    return (
        (s[0] < r[0]) & (r[2] < s[2]) & (r[1] < s[1]) & (s[3] < r[3])
    ) | (
        (r[0] < s[0]) & (s[2] < r[2]) & (s[1] < r[1]) & (r[3] < s[3])
    )


#: The MBR bits, over ``(xmin, ymin, xmax, ymax)`` rows of r and s.
#: ``mbr_disjoint``, ``mbr_equal`` and ``mbr_cross`` are Fig. 4 cases;
#: the containments are :class:`~repro.geometry.box.Box`'s, read alone.
MBR_BITS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "mbr_disjoint": lambda r, s: ~_intersects(r, s),
    "mbr_equal": _equal,
    "mbr_cross": _cross,
    "mbr_r_in_s": lambda r, s: _contains(s, r),
    "mbr_s_in_r": lambda r, s: _contains(r, s),
    "mbr_r_strictly_in_s": lambda r, s: _strictly_contains(s, r),
    "mbr_s_strictly_in_r": lambda r, s: _strictly_contains(r, s),
}

Operand = tuple[PackedLists, np.ndarray]


def _by_target(rows: np.ndarray, t_slots: np.ndarray) -> np.ndarray:
    """``rows`` ordered by target slot: the keys of one pass then rise
    through the target's lists, and ``searchsorted`` stays in cache
    (several times faster than keys in random order)."""
    return rows[np.argsort(t_slots[rows], kind="stable")]


def _overlap(x: Operand, y: Operand) -> np.ndarray:
    """``overlaps(X, Y)`` per pair, probing each pair's shorter list."""
    out = np.zeros(x[1].size, dtype=bool)
    flip = x[0].lengths[x[1]] > y[0].lengths[y[1]]
    for (probe, p_slots), (target, t_slots), rows in (
        (x, y, np.flatnonzero(~flip)), (y, x, np.flatnonzero(flip)),
    ):
        if not rows.size:
            continue
        rows = _by_target(rows, t_slots)
        t_starts, t_ends = target.keyed()
        for owner, idx in probe.expand(p_slots[rows]):
            base = t_slots[rows[owner]] * _KEY
            # [s, e) overlaps the target list iff count(ys < e) > count(ye <= s).
            hits = t_starts.searchsorted(base + probe.ends[idx], "left") > t_ends.searchsorted(
                base + probe.starts[idx], "right"
            )
            out[rows[owner[hits]]] = True
    return out


def _inside(x: Operand, y: Operand) -> np.ndarray:
    """``inside(X, Y)`` per pair: every X interval in one Y interval."""
    (probe, p_slots), (target, t_slots) = x, y
    out = np.ones(p_slots.size, dtype=bool)
    rows = _by_target(np.arange(p_slots.size), t_slots)
    t_starts, t_ends = target.keyed()
    for owner, idx in probe.expand(p_slots[rows]):
        base = t_slots[rows[owner]] * _KEY
        covered = t_starts.searchsorted(base + probe.starts[idx], "right") == (
            t_ends.searchsorted(base + probe.ends[idx], "left") + 1
        )
        out[rows[owner[~covered]]] = False
    return out


def _match(x: Operand, y: Operand) -> np.ndarray:
    """``matches(X, Y)`` per pair: the same intervals."""
    (xl, x_slots), (yl, y_slots) = x, y
    out = xl.lengths[x_slots] == yl.lengths[y_slots]
    rows = np.flatnonzero(out)
    for owner, ix in xl.expand(x_slots[rows]):
        iy = ix - xl.offsets[x_slots[rows[owner]]] + yl.offsets[y_slots[rows[owner]]]
        same = (xl.starts[ix] == yl.starts[iy]) & (xl.ends[ix] == yl.ends[iy])
        out[rows[owner[~same]]] = False
    return out


def _nonempty(x: Operand) -> np.ndarray:
    return x[0].lengths[x[1]] > 0


_RELATIONS = {"overlap": _overlap, "inside": _inside, "match": _match, "nonempty": _nonempty}

#: Every bit name :meth:`PairBits.bit` answers. A list bit is
#: ``relation_operand[_operand]`` with an operand such as ``rC`` (r's
#: C list) or ``sP``.
BIT_NAMES: tuple[str, ...] = (
    *MBR_BITS,
    "connected",
    "overlap_rC_sC", "overlap_rC_sP", "overlap_rP_sC",
    "inside_rC_sC", "inside_sC_rC", "inside_rC_sP", "inside_sC_rP",
    "match_rC_sC", "match_rP_sP",
    "nonempty_rP", "nonempty_sP",
)


class PairBits:
    """The bits of a stream's pairs ``(r_slot[k], s_slot[k])``."""

    def __init__(self, r: Side, s: Side, r_slot: np.ndarray, s_slot: np.ndarray) -> None:
        self.sides = {"r": r, "s": s}
        self.slots = {"r": r_slot, "s": s_slot}
        self._grids_checked = False

    @classmethod
    def of_objects(cls, r_objects, s_objects, pairs: Sequence[tuple[int, int]]) -> "PairBits":
        """The bits of ``(r_objects[i], s_objects[j])`` for every ``(i,
        j)`` of ``pairs``: each distinct object is packed once."""
        ij = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2)
        sides = []
        for objects, ids in ((r_objects, ij[:, 0]), (s_objects, ij[:, 1])):
            distinct, slot = np.unique(ids, return_inverse=True)
            chosen = [objects[i] for i in distinct.tolist()]
            side = Side(
                [o.box for o in chosen],
                [o.is_connected for o in chosen],
                # Read only by a list bit, which refuses a missing one.
                [o.april for o in chosen],
            )
            sides.append((side, slot.reshape(-1)))
        (r, r_slot), (s, s_slot) = sides
        return cls(r, s, r_slot, s_slot)

    def bit(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Bit ``name`` (one of :data:`BIT_NAMES`) of the pairs ``rows``."""
        r_slots = self.slots["r"][rows]
        s_slots = self.slots["s"][rows]
        if name in MBR_BITS:
            r, s = self.sides["r"], self.sides["s"]
            return MBR_BITS[name](r.boxes[r_slots].T, s.boxes[s_slots].T)
        if name == "connected":
            return self.sides["r"].connected[r_slots] & self.sides["s"].connected[s_slots]
        relation, *operands = name.split("_")
        self._check_grids()
        return _RELATIONS[relation](*(
            (self.sides[side].lists(kind), self.slots[side][rows]) for side, kind in operands
        ))

    def _check_grids(self) -> None:
        """Lists built on different grids cannot be compared."""
        if self._grids_checked:
            return
        if any(a is None for side in "rs" for a in self.sides[side].aprils):
            raise ValueError("a list bit read an object that has no APRIL approximation")
        grids = [
            {id(a.grid): a.grid for a in self.sides[side].aprils}.values() for side in "rs"
        ]
        for r_grid in grids[0]:
            for s_grid in grids[1]:
                if not r_grid.compatible_with(s_grid):
                    raise ValueError(
                        "APRIL approximations built on different grids cannot be compared"
                    )
        self._grids_checked = True


__all__ = ["BIT_NAMES", "MBR_BITS", "PackedLists", "PairBits", "Side"]

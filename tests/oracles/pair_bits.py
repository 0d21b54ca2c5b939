"""The filter bits as they were computed before the APRIL store: the
per-call packer.

Every call packed the distinct objects of a stream into two sides
(:class:`Side`: boxes, connectivity and approximations by slot) and
the interval lists its tree reached into one set of CSR arrays
(:class:`PackedLists`, one ``PackedLists.add`` over ``IntervalList``s
per block of operands), then searched that one keyed array. This is
that code, verbatim but for the imports; the product's
:class:`repro.filters.pair_bits.PairBits` gathers the same operands
from per-dataset stores by object id, and
``tests/test_pair_bits_store.py`` compares the two bit by bit.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from repro.filters.pair_bits import BIT_NAMES, MBR_BITS

_EMPTY = np.empty(0, dtype=np.int64)

#: Key stride between two lists' bounds: above every bound (≤ 2**32).
_KEY = np.int64(1) << 33

#: Probe intervals per expanded pass; a pair whose own list alone is
#: longer is a pass of its own. Tests monkeypatch it to 1.
_BUDGET = 1 << 20


class PackedLists:
    """Interval lists as CSR arrays, appended a block at a time: list
    ``k`` is ``bounds[:, offsets[k]:offsets[k + 1]]``, its starts over
    its ends; ``keyed`` is ``bounds`` keyed by list (see above)."""

    __slots__ = ("bounds", "keyed", "offsets", "lengths")

    def __init__(self) -> None:
        self.lengths = _EMPTY
        self.offsets = np.zeros(1, dtype=np.int64)
        self.bounds = self.keyed = np.empty((2, 0), dtype=np.int64)

    def add(self, lists: Sequence) -> int:
        """Append ``lists``; the id of the first of them."""
        first = self.lengths.size
        starts = [il.starts for il in lists]
        lengths = np.fromiter(map(len, starts), np.int64, len(starts))
        bounds = np.concatenate(starts + [il.ends for il in lists] + [_EMPTY]).reshape(2, -1)
        keys = (np.arange(first, first + lengths.size) * _KEY).repeat(lengths)
        self.lengths = np.concatenate([self.lengths, lengths])
        self.offsets = np.concatenate([self.offsets, self.offsets[-1] + lengths.cumsum()])
        self.bounds = np.concatenate([self.bounds, bounds], axis=1)
        self.keyed = np.concatenate([self.keyed, bounds + keys], axis=1)
        return first

    def expand(self, ids: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every interval of the lists ``ids`` names, as ``(owner,
        index)``: ``owner`` the position in ``ids`` of its list,
        ``index`` its column in ``bounds``; in passes of at
        most ``_BUDGET`` intervals (one pass when they all fit)."""
        lengths = self.lengths[ids]
        cum = lengths.cumsum()
        # Each interval's index is its position in the expansion plus
        # this, per list.
        shift = self.offsets[ids] - cum + lengths
        start = done = 0
        while start < ids.size:
            stop = ids.size
            if cum[-1] - done > _BUDGET:
                stop = max(int(cum.searchsorted(done + _BUDGET, "right")), start + 1)
            end = int(cum[stop - 1])
            if end > done:
                owner = np.arange(start, stop).repeat(lengths[start:stop])
                yield owner, shift[owner] + np.arange(done, end)
            start, done = stop, end


class Side:
    """The distinct objects of one side of a stream, by slot."""

    __slots__ = ("boxes", "connected", "aprils")

    def __init__(self, boxes, connected, aprils: Sequence) -> None:
        self.boxes = np.fromiter(
            chain.from_iterable((b.xmin, b.ymin, b.xmax, b.ymax) for b in boxes), np.float64
        ).reshape(-1, 4)
        self.connected = np.asarray(connected, dtype=bool)
        self.aprils = aprils


def _overlap(lists: PackedLists, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``overlaps(X, Y)`` per pair, probing each pair's shorter list."""
    flip = lists.lengths[x] > lists.lengths[y]
    return _probe(lists, np.where(flip, y, x), np.where(flip, x, y), overlap=True)


def _inside(lists: PackedLists, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``inside(X, Y)`` per pair: every X interval in one Y interval."""
    return _probe(lists, x, y, overlap=False)


def _probe(lists: PackedLists, probe: np.ndarray, target: np.ndarray, overlap: bool) -> np.ndarray:
    """Per pair: does some ``probe`` interval overlap the ``target``
    list (``overlap``), or does every one lie in one target interval?
    The pairs are visited by target list: the keys of one pass then rise
    through the target lists, and ``searchsorted`` stays in cache
    (several times faster than keys in random order)."""
    found = np.zeros(probe.size, dtype=bool)
    order = target.argsort(kind="stable")
    probe, target = probe[order], target[order]
    t_starts, t_ends = lists.keyed
    for owner, idx in lists.expand(probe):
        s, e = lists.bounds.take(idx, axis=1) + target[owner] * _KEY
        if overlap:
            # [s, e) meets the target list iff count(ys < e) > count(ye <= s).
            hit = t_starts.searchsorted(e, "left") > t_ends.searchsorted(s, "right")
        else:
            # ... and lies in one of its intervals iff that one is the last
            # to start at or before s and the first to end at or after e.
            hit = t_starts.searchsorted(s, "right") != t_ends.searchsorted(e, "left") + 1
        found[order[owner[hit]]] = True
    return found if overlap else ~found


def _match(lists: PackedLists, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``matches(X, Y)`` per pair: the same intervals."""
    out = lists.lengths[x] == lists.lengths[y]
    rows = np.flatnonzero(out)
    for owner, ix in lists.expand(x[rows]):
        iy = ix - lists.offsets[x[rows[owner]]] + lists.offsets[y[rows[owner]]]
        same = (lists.bounds.take(ix, axis=1) == lists.bounds.take(iy, axis=1)).all(axis=0)
        out[rows[owner[~same]]] = False
    return out


def _nonempty(lists: PackedLists, x: np.ndarray) -> np.ndarray:
    return lists.lengths[x] > 0


_RELATIONS = {"overlap": _overlap, "inside": _inside, "match": _match, "nonempty": _nonempty}

#: Each list bit as its relation and its operands' ``(side, kind)``,
#: ``kind`` the list's attribute (``"p"`` or ``"c"``).
_LIST_BITS = {
    name: (_RELATIONS[relation], tuple((op[0], op[1].lower()) for op in operands))
    for name in BIT_NAMES[len(MBR_BITS) + 1 :]
    for relation, *operands in [name.split("_")]
}


class PairBits:
    """The bits of a stream's pairs ``(r_slot[k], s_slot[k])``."""

    def __init__(self, r: Side, s: Side, r_slot: np.ndarray, s_slot: np.ndarray) -> None:
        self.sides = {"r": r, "s": s}
        self.slots = {"r": r_slot, "s": s_slot}
        #: Whole-stream arrays: the MBR bits and ``connected`` by name,
        #: the list ids by operand.
        self._whole: dict = {}
        self._boxes: tuple[np.ndarray, np.ndarray] | None = None
        self._packed: PackedLists | None = None

    @classmethod
    def of_objects(cls, r_objects, s_objects, pairs: Sequence[tuple[int, int]]) -> "PairBits":
        """The bits of ``(r_objects[i], s_objects[j])`` for every ``(i,
        j)`` of ``pairs``: each distinct object is packed once."""
        ij = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2)
        sides = []
        for objects, ids in ((r_objects, ij[:, 0]), (s_objects, ij[:, 1])):
            # np.unique(ids, return_inverse=True), in fewer passes.
            ordered = np.sort(ids)
            distinct = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
            slot = distinct.searchsorted(ids)
            chosen = [objects[i] for i in distinct.tolist()]
            side = Side(
                [o.box for o in chosen],
                [o.is_connected for o in chosen],
                # Read only by a list bit, which refuses a missing one.
                [o.april for o in chosen],
            )
            sides.append((side, slot))
        (r, r_slot), (s, s_slot) = sides
        return cls(r, s, r_slot, s_slot)

    def bit(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Bit ``name`` (one of :data:`BIT_NAMES`) of the pairs ``rows``."""
        listed = _LIST_BITS.get(name)
        if listed is None:
            whole = self._whole.get(name)
            if whole is None:
                whole = self._whole[name] = self._stream_bit(name)
            return whole[rows]
        relation, operands = listed
        ids = self._list_ids(operands)
        return relation(self._packed, *(each[rows] for each in ids))

    def _stream_bit(self, name: str) -> np.ndarray:
        """An MBR bit or ``connected`` of every pair of the stream."""
        (r, r_slot), (s, s_slot) = ((self.sides[k], self.slots[k]) for k in "rs")
        if name == "connected":
            return r.connected[r_slot] & s.connected[s_slot]
        if self._boxes is None:
            self._boxes = (r.boxes[r_slot].T, s.boxes[s_slot].T)
        return MBR_BITS[name](*self._boxes)

    def _list_ids(self, operands) -> list[np.ndarray]:
        """The packed list id of each operand ``(side, kind)`` of every
        pair: the operands not packed yet are packed in one block."""
        missing = [op for op in operands if op not in self._whole]
        if missing:
            if self._packed is None:
                self._check_grids()
                self._packed = PackedLists()
            first = self._packed.add([
                getattr(a, kind) for side, kind in missing for a in self.sides[side].aprils
            ])
            for side, kind in missing:
                self._whole[side, kind] = first + self.slots[side]
                first += len(self.sides[side].aprils)
        return [self._whole[op] for op in operands]

    def _check_grids(self) -> None:
        """Lists built on different grids cannot be compared."""
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


__all__ = ["PackedLists", "PairBits", "Side"]

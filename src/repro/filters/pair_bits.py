"""The per-pair bits of the filter decision trees, for a whole stream.

A Fig. 6 flow (:mod:`repro.filters.relate_filters`) reads a handful of
yes/no facts per candidate pair: how the two MBRs relate, whether both
shapes are connected, and the Sec. 3.2 relations of their APRIL lists
(*overlap*, *inside*, *match*, ``P ≠ ∅``). :class:`PairBits` computes
any of them for any subset of a stream's pairs in a few numpy passes.

**Gathering.** Each side of a stream is one
:class:`~repro.raster.april.AprilColumns` store — the lists, boxes and
connectivity of a dataset's objects on one grid, row ``k`` object
``k``'s — and a pair is one row of each. A side whose objects all
defer to one store (a dataset's, :attr:`SpatialObject.store
<repro.join.objects.SpatialObject.store>`) is read from it by object
id, with nothing packed per call; any other side is first packed into
a store of its distinct objects (:meth:`AprilColumns.of
<repro.raster.april.AprilColumns.of>`).
An MBR bit or ``connected`` is computed once for the whole stream, the
first time a node reads it, and each node takes its rows of it. An
operand such as ``rC`` (r's C lists) or ``sP`` is the side's
:class:`~repro.raster.intervals.ListColumns` and a row per pair.

**One keyed search per pass.** Cell ids lie below ``4**16 = 2**32`` on
every grid (order ≤ 16), so an interval bound is at most ``2**32``, and
the key ``row * 2**33 + bound`` puts each list's bounds strictly
between those of the lists around it. One ``searchsorted`` over a
store's keyed bounds (:func:`_keyed`, built once per store and kept
with it) then searches every pair's *own* target list at once: the
lists before it add the same count to both sides of each comparison of
:mod:`repro.raster.kernels`, and the lists after it add nothing. The
probe side's intervals are expanded pair by pair, and one scatter
folds the per-interval answers back into one bit per pair.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.raster.april import AprilColumns
from repro.raster.intervals import ListColumns

#: Key stride between two lists' bounds: above every bound (≤ 2**32).
_KEY = np.int64(1) << 33

#: Probe intervals per expanded pass; a pair whose own list alone is
#: longer is a pass of its own. Tests monkeypatch it to 1.
_BUDGET = 1 << 20


def _keyed(lists: ListColumns) -> tuple[np.ndarray, np.ndarray]:
    """The starts and ends of ``lists`` keyed by list (see above)."""
    if lists.keyed is None:
        keys = (np.arange(len(lists), dtype=np.int64) * _KEY).repeat(lists.lengths)
        lists.keyed = (lists.starts + keys, lists.ends + keys)
    return lists.keyed


def _expand(lists: ListColumns, rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every interval of the lists ``rows``, as ``(owner, index)``:
    ``owner`` the position in ``rows`` of its list, ``index`` its
    position in ``lists.starts``; in passes of at most ``_BUDGET``
    intervals (one pass when they all fit)."""
    lengths = lists.lengths[rows]
    cum = lengths.cumsum()
    # Each interval's index is its position in the expansion plus
    # this, per list.
    shift = lists.offsets[rows] - cum + lengths
    start = done = 0
    while start < rows.size:
        stop = rows.size
        if cum[-1] - done > _BUDGET:
            stop = max(int(cum.searchsorted(done + _BUDGET, "right")), start + 1)
        end = int(cum[stop - 1])
        if end > done:
            owner = np.arange(start, stop).repeat(lengths[start:stop])
            yield owner, shift[owner] + np.arange(done, end)
        start, done = stop, end


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

def _overlap(x: ListColumns, xi: np.ndarray, y: ListColumns, yi: np.ndarray) -> np.ndarray:
    """``overlaps(X, Y)`` per pair: each pair's shorter list probes the
    other, in at most two passes (one per store searched)."""
    flip = x.lengths[xi] > y.lengths[yi]
    out = np.empty(xi.size, dtype=bool)
    for rows, probe, p_rows, target, t_rows in ((~flip, x, xi, y, yi), (flip, y, yi, x, xi)):
        if rows.any():
            out[rows] = _probe(probe, p_rows[rows], target, t_rows[rows], overlap=True)
    return out


def _inside(x: ListColumns, xi: np.ndarray, y: ListColumns, yi: np.ndarray) -> np.ndarray:
    """``inside(X, Y)`` per pair: every X interval in one Y interval."""
    return _probe(x, xi, y, yi, overlap=False)


def _probe(
    probe: ListColumns, p_rows: np.ndarray, target: ListColumns, t_rows: np.ndarray, overlap: bool
) -> np.ndarray:
    """Per pair: does some interval of list ``p_rows`` of ``probe``
    overlap list ``t_rows`` of ``target`` (``overlap``), or does every
    one lie in one target interval? The pairs are visited by target
    list: the keys of one pass then rise through the target's keyed
    bounds, and ``searchsorted`` stays in cache (several times faster
    than keys in random order)."""
    found = np.zeros(p_rows.size, dtype=bool)
    order = t_rows.argsort(kind="stable")
    p_rows, t_rows = p_rows[order], t_rows[order]
    t_starts, t_ends = _keyed(target)
    for owner, idx in _expand(probe, p_rows):
        key = t_rows[owner] * _KEY
        s, e = probe.starts[idx] + key, probe.ends[idx] + key
        if overlap:
            # [s, e) meets the target list iff count(ys < e) > count(ye <= s).
            hit = t_starts.searchsorted(e, "left") > t_ends.searchsorted(s, "right")
        else:
            # ... and lies in one of its intervals iff that one is the last
            # to start at or before s and the first to end at or after e.
            hit = t_starts.searchsorted(s, "right") != t_ends.searchsorted(e, "left") + 1
        found[order[owner[hit]]] = True
    return found if overlap else ~found


def _match(x: ListColumns, xi: np.ndarray, y: ListColumns, yi: np.ndarray) -> np.ndarray:
    """``matches(X, Y)`` per pair: the same intervals."""
    out = x.lengths[xi] == y.lengths[yi]
    rows = np.flatnonzero(out)
    for owner, ix in _expand(x, xi[rows]):
        iy = ix - x.offsets[xi[rows[owner]]] + y.offsets[yi[rows[owner]]]
        same = (x.starts[ix] == y.starts[iy]) & (x.ends[ix] == y.ends[iy])
        out[rows[owner[~same]]] = False
    return out


def _nonempty(x: ListColumns, xi: np.ndarray) -> np.ndarray:
    return x.lengths[xi] > 0


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

#: Each list bit as its relation and its operands' ``(side, kind)``,
#: ``kind`` the store's attribute (``"p"`` or ``"c"``).
_LIST_BITS = {
    name: (_RELATIONS[relation], tuple((op[0], op[1].lower()) for op in operands))
    for name in BIT_NAMES[len(MBR_BITS) + 1 :]
    for relation, *operands in [name.split("_")]
}


def _store(objects: Sequence, ids: np.ndarray) -> tuple[AprilColumns, np.ndarray]:
    """The store that holds ``objects[i]`` for every ``i`` of ``ids``,
    and the row of each: the one store all the named objects defer to,
    read by their object ids, or else one packed of the distinct
    objects ``ids`` names."""
    named = list(map(objects.__getitem__, ids.tolist()))
    stores = set(map(attrgetter("store"), named))
    if len(stores) == 1 and None not in stores:
        return stores.pop(), np.fromiter(map(attrgetter("oid"), named), np.int64, len(named))
    # np.unique(ids, return_inverse=True), in fewer passes.
    ordered = np.sort(ids)
    distinct = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
    chosen = [objects[i] for i in distinct.tolist()]
    # Lists are read only by a list bit, which refuses a missing one.
    packed = AprilColumns.of(
        [o.april for o in chosen], [o.box for o in chosen], [o.is_connected for o in chosen]
    )
    return packed, distinct.searchsorted(ids)


def key_stores(*object_lists: Sequence) -> None:
    """Build the keyed bounds of the store each of ``object_lists``
    defers to, so that processes forked after this inherit them
    instead of each building its own."""
    for objects in object_lists:
        store = getattr(objects[0], "store", None) if len(objects) else None
        if store is not None:
            _keyed(store.p)
            _keyed(store.c)


class PairBits:
    """The bits of a stream's pairs: row ``r_rows[k]`` of store ``r``
    with row ``s_rows[k]`` of store ``s``."""

    def __init__(
        self, r: AprilColumns, s: AprilColumns, r_rows: np.ndarray, s_rows: np.ndarray
    ) -> None:
        self.stores = {"r": r, "s": s}
        self.rows = {"r": r_rows, "s": s_rows}
        #: Whole-stream arrays: the MBR bits and ``connected`` by name.
        self._whole: dict = {}
        self._boxes: tuple[np.ndarray, np.ndarray] | None = None
        self._checked = False

    @classmethod
    def of_objects(cls, r_objects, s_objects, pairs: Sequence[tuple[int, int]]) -> "PairBits":
        """The bits of ``(r_objects[i], s_objects[j])`` for every ``(i,
        j)`` of ``pairs``."""
        ij = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2)
        (r, r_rows), (s, s_rows) = _store(r_objects, ij[:, 0]), _store(s_objects, ij[:, 1])
        return cls(r, s, r_rows, s_rows)

    def bit(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Bit ``name`` (one of :data:`BIT_NAMES`) of the pairs ``rows``."""
        listed = _LIST_BITS.get(name)
        if listed is None:
            whole = self._whole.get(name)
            if whole is None:
                whole = self._whole[name] = self._stream_bit(name)
            return whole[rows]
        if not self._checked:
            self._check_lists()
        relation, operands = listed
        args = []
        for side, kind in operands:
            args += (getattr(self.stores[side], kind), self.rows[side][rows])
        return relation(*args)

    def _stream_bit(self, name: str) -> np.ndarray:
        """An MBR bit or ``connected`` of every pair of the stream."""
        r, s, r_rows, s_rows = self.stores["r"], self.stores["s"], self.rows["r"], self.rows["s"]
        if name == "connected":
            return r.connected[r_rows] & s.connected[s_rows]
        if self._boxes is None:
            self._boxes = (r.boxes[r_rows].T, s.boxes[s_rows].T)
        return MBR_BITS[name](*self._boxes)

    def _check_lists(self) -> None:
        """Every object of the stream has lists, and lists built on
        different grids are never compared."""
        for side in "rs":
            built = self.stores[side].built
            if built is not None and not built[self.rows[side]].all():
                raise ValueError("a list bit read an object that has no APRIL approximation")
        r_grid, s_grid = self.stores["r"].grid, self.stores["s"].grid
        if r_grid is None or s_grid is None or not r_grid.compatible_with(s_grid):
            raise ValueError("APRIL approximations built on different grids cannot be compared")
        self._checked = True


__all__ = ["BIT_NAMES", "MBR_BITS", "PairBits", "key_stores"]

"""Batched DE-9IM refinement over edge arrays — the refinement step.

:func:`relate_many` computes the DE-9IM matrices of a whole batch of
polygon pairs (every pair a join partition's filters left undecided) in
a fixed number of numpy passes, reading edge endpoints straight from
:class:`~repro.geometry.columns.GeometryColumns`. Per batch:

1. **Clip.** Only edges meeting the pair's MBR overlap can meet the
   other boundary. An edge outside it lies outside the other geometry's
   MBR, so its points are exterior to the other geometry: it proves
   ``BE`` (``EB``) without producing a midpoint.
2. **Contacts.** A sorted-xmin band join over the kept edges (integer
   keys: pair id times ``M`` plus the x rank, so closed-interval ties
   stay exact), then a y-overlap mask, lists every candidate edge pair;
   the exact orientation signs of all of them classify each as a
   crossing, a touch, a collinear overlap or nothing, with the points
   :func:`repro.geometry.segment.segment_intersection` returns.
3. **Subdivide.** Each boundary is cut at its contact points. Every
   resulting *sub-edge* interior lies entirely in one region
   (interior / boundary / exterior) of the other geometry: region
   changes happen only across the other boundary, and every
   boundary/boundary contact point is a cut. Collinear-overlap
   sub-edges are exactly the ON sub-edges and are identified
   symbolically from the contact records, so the numeric classifier
   never sees a point on the other boundary.
4. **Classify** the midpoint of every non-ON sub-edge as interior or
   exterior of the other geometry (even-odd parity).
5. **Assemble** the matrix. Writing ``rB∩sI`` for "some r sub-edge
   midpoint interior to s" etc., and using that polygon interiors are
   open, connected (per part), and adjacent to every point of their
   boundary:

   - ``BI = rB∩sI``, ``IB = sB∩rI``, ``BE = rB∩sE``, ``EB = sB∩rE``
     (a 1-D boundary piece meeting an open region is a whole sub-arc,
     hence a whole sub-edge, hence a midpoint);
   - ``BB`` = some contact was found (exact);
   - ``II = BI ∨ IB ∨ repr(r)∈int(s) ∨ repr(s)∈int(r)`` — a boundary
     point of one shape inside the other's open interior has interior
     points of its own shape arbitrarily close; the representative-point
     disjuncts cover pairs whose boundaries never leave each other
     (e.g. equal polygons). There is one witness per interior
     component (per part of a multipolygon); a witness exactly on the
     other boundary has interior and exterior points of the other
     shape arbitrarily close, so BOUNDARY implies II and IE/EI alike;
   - ``IE = BE ∨ IB ∨ repr(r)∈ext(s)`` — dual argument with the open
     exterior; completeness follows from interior connectedness (a path
     from ``repr(r)`` to a point of ``int(r)∩ext(s)`` crosses ``bnd(s)``
     inside ``int(r)``); ``EI`` symmetric;
   - ``EE = T`` for bounded geometries.

   The representative points are the only use of ``Polygon`` objects:
   they are built only for the pairs that reach this fallback.

Three notes on how the passes stay equal to the per-pair scalar code
they replaced (``tests/oracles/relate.py``):

- **Exact signs.** Orientation signs come from one float64 pass with
  :mod:`repro.geometry.segment`'s static error bound; only the elements
  the bound cannot vouch for are re-evaluated with ``Fraction``, so every
  sign equals :func:`~repro.geometry.segment.orientation`'s. Crossing
  points, overlap ends, cut parameters and midpoints use the scalar
  float formulas operation for operation.
- **Slab parity.** Each midpoint is tested only against the other
  geometry's edges that straddle its y: the geometry's distinct vertex
  ys cut the plane into horizontal slabs, and an edge spans the slabs
  between its end ys. Slabs are numbered on exact ranks and the points
  sorted by slab, so each edge meets one contiguous run of points —
  exactly those with ``(ay > y) != (by > y)`` — and the parity bits
  equal those of the dense points-by-edges test.
- **Batch chunking.** Every expanded pass — pairs into edges, edges
  into candidate edge pairs, edges into the points of their slabs — is cut into
  chunks of at most :data:`_BUDGET` elements (one item whose own
  expansion exceeds it forms a chunk alone), so the working set of a
  batch does not grow with the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.geometry.columns import GeometryColumns
from repro.geometry.segment import _ORIENT_EPS, _orientation_exact
from repro.topology.de9im import DE9IM

#: Matrix of two polygons with disjoint MBRs (the paper's Fig. 1 example).
DISJOINT_MATRIX = DE9IM("FFTFFTTTT")

#: Sub-edges shorter than this fraction of their parent edge are dropped:
#: their midpoints sit too close to a subdivision point for the float
#: classifier to be meaningful, and a region touched by a longer piece of
#: boundary is always witnessed by some non-degenerate sub-edge.
_MIN_SPAN = 1e-12

#: Elements per chunk of every expanded pass (see the module docstring).
_BUDGET = 1 << 16

#: Contact kinds: no contact, one shared point, a shared collinear piece.
NONE, POINT, OVERLAP = 0, 1, 2

#: Point locations as :func:`locate_many` codes them.
EXTERIOR, BOUNDARY, INTERIOR = 0, 1, 2

_I8 = np.int64


@dataclass(frozen=True, slots=True)
class RelateDetails:
    """A DE-9IM matrix plus the facts needed to dimension it."""

    matrix: DE9IM
    #: True iff the boundaries share a 1-dimensional (collinear) piece.
    boundary_overlap: bool


class GeometrySet(NamedTuple):
    """The geometries one side of a batch refers to by index."""

    columns: GeometryColumns
    #: ``geometries[g]`` is geometry ``g`` itself; only the
    #: representative-point fallback reads it.
    geometries: Sequence

    @classmethod
    def of(cls, geometries: Sequence) -> "GeometrySet":
        """Over a sequence that carries its columns (a dataset's lazy
        geometries), or over bare geometries, flattened once."""
        columns = getattr(geometries, "columns", None)
        if columns is None:
            columns = GeometryColumns.from_geometries(geometries)
        return cls(columns, geometries)


class EdgeArrays(NamedTuple):
    """Edges ``(ax, ay) -> (bx, by)``; ``owner`` says whose each is."""

    owner: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    bx: np.ndarray
    by: np.ndarray

    @classmethod
    def of_line(cls, coords) -> "EdgeArrays":
        """A polyline's edges: an edge array without a closing edge."""
        xy = np.asarray(coords, dtype=np.float64)
        return cls(np.zeros(len(xy) - 1, _I8), xy[:-1, 0], xy[:-1, 1], xy[1:, 0], xy[1:, 1])

    @classmethod
    def of_geometries(cls, columns: GeometryColumns, geoms: np.ndarray) -> "EdgeArrays":
        """Every edge of geometries ``geoms`` of ``columns`` (owner ``k``
        for ``geoms[k]``), in ``edges()`` order: ring by ring, each
        ring's closing edge last."""
        owner, vertex, succ = _gather(columns, geoms)
        xy = columns.coords
        return cls(owner, xy[vertex, 0], xy[vertex, 1], xy[succ, 0], xy[succ, 1])


class Contacts(NamedTuple):
    """Every boundary/boundary contact of the pairs of a batch: edge
    ``r`` of one side meets edge ``s`` of the other at point ``p``
    (``kind == POINT``) or along ``p``–``q`` (``kind == OVERLAP``)."""

    r: np.ndarray
    s: np.ndarray
    kind: np.ndarray
    px: np.ndarray
    py: np.ndarray
    qx: np.ndarray
    qy: np.ndarray

    def cuts(self, side: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(edge, x, y)`` of every cut point on one side's edges."""
        edge = self.r if side == "r" else self.s
        ov = self.kind == OVERLAP
        return (
            np.concatenate([edge, edge[ov]]),
            np.concatenate([self.px, self.qx[ov]]),
            np.concatenate([self.py, self.qy[ov]]),
        )

    def overlaps(self, side: str) -> tuple[np.ndarray, ...]:
        """``(edge, px, py, qx, qy)`` of every shared collinear piece."""
        ov = self.kind == OVERLAP
        edge = self.r if side == "r" else self.s
        return edge[ov], self.px[ov], self.py[ov], self.qx[ov], self.qy[ov]


# ----------------------------------------------------------------------
# the batch
# ----------------------------------------------------------------------
def relate_many(pairs: Sequence[tuple]) -> list[RelateDetails]:
    """The :class:`RelateDetails` of every ``(r, s)`` polygon or
    multipolygon pair, in order: every geometry of the batch is
    flattened once and the pairs are refined together."""
    slot: dict[int, int] = {}
    geometries: list = []
    index = np.empty((len(pairs), 2), dtype=_I8)
    for k, pair in enumerate(pairs):
        for side, geometry in enumerate(pair):
            g = slot.get(id(geometry))
            if g is None:
                g = slot[id(geometry)] = len(geometries)
                geometries.append(geometry)
            index[k, side] = g
    flat = GeometrySet.of(geometries)
    return relate_indexed(flat, index[:, 0], flat, index[:, 1])


def relate_indexed(
    r: GeometrySet, r_idx: Sequence[int], s: GeometrySet, s_idx: Sequence[int]
) -> list[RelateDetails]:
    """The :class:`RelateDetails` of pairs ``(r[r_idx[k]], s[s_idx[k]])``."""
    r_idx = np.asarray(r_idx, dtype=_I8)
    s_idx = np.asarray(s_idx, dtype=_I8)
    n = len(r_idx)
    rb, sb = r.columns.boxes[r_idx], s.columns.boxes[s_idx]
    clip = np.concatenate([np.maximum(rb[:, :2], sb[:, :2]), np.minimum(rb[:, 2:], sb[:, 2:])], axis=1)
    live_mask = (clip[:, 0] <= clip[:, 2]) & (clip[:, 1] <= clip[:, 3])
    live = np.flatnonzero(live_mask)

    # Per pair: BB, boundary overlap, BI, BE, IB, EB.
    flags = np.zeros((6, n), dtype=bool)
    costs = _edge_counts(r.columns, r_idx[live]) + _edge_counts(s.columns, s_idx[live])
    for part in _chunks(costs):
        chosen = live[part]
        flags[:, chosen] = _refine(r, r_idx[chosen], s, s_idx[chosen], clip[chosen])
    bb, overlap, bi, be, ib, eb = flags

    # Representative-point fallback: only where the sub-edges left II,
    # IE or EI open.
    settled_ii = bi | ib
    need_rs = live_mask & (~settled_ii | ~(be | ib))
    need_sr = live_mask & (~settled_ii | ~(eb | bi))
    rs_any_in, rs_any_out = _witnesses(r, r_idx, s, s_idx, np.flatnonzero(need_rs), n)
    sr_any_in, sr_any_out = _witnesses(s, s_idx, r, r_idx, np.flatnonzero(need_sr), n)
    ii = settled_ii | rs_any_in | sr_any_in
    ie = be | ib | rs_any_out
    ei = eb | bi | sr_any_out

    out = [RelateDetails(DISJOINT_MATRIX, False)] * n
    for k in live.tolist():
        matrix = DE9IM.from_cells(
            bool(ii[k]), bool(ib[k]), bool(ie[k]),
            bool(bi[k]), bool(bb[k]), bool(be[k]),
            bool(ei[k]), bool(eb[k]), True,
        )
        out[k] = RelateDetails(matrix, bool(overlap[k]))
    return out


def _refine(
    r: GeometrySet, r_idx: np.ndarray, s: GeometrySet, s_idx: np.ndarray, clip: np.ndarray
) -> np.ndarray:
    """Steps 1–4 of the module docstring for one chunk of live pairs:
    rows BB, boundary overlap, BI, BE, IB, EB."""
    n = len(r_idx)
    er = EdgeArrays.of_geometries(r.columns, r_idx)
    es = EdgeArrays.of_geometries(s.columns, s_idx)
    keep_r = _inside_clip(er, clip)
    keep_s = _inside_clip(es, clip)
    contacts = edge_contacts(er, es, keep_r, keep_s)

    pair_of_contact = er.owner[contacts.r]
    bb = _any(pair_of_contact, n)
    overlap = _any(pair_of_contact[contacts.kind == OVERLAP], n)
    bi, be = _classify_side(er, keep_r, contacts, "r", s, s_idx)
    ib, eb = _classify_side(es, keep_s, contacts, "s", r, r_idx)
    return np.stack([bb, overlap, bi, be, ib, eb])


def _classify_side(
    edges: EdgeArrays,
    keep: np.ndarray,
    contacts: Contacts,
    side: str,
    other: GeometrySet,
    other_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair: does some sub-edge of this side's boundary lie in the
    other geometry's interior, and some in its exterior?"""
    n = len(other_idx)
    # Clipped-away edges lie outside the other MBR: exterior outright.
    outside = _any(edges.owner[~keep], n)
    edge, mx, my = free_midpoints(edges, contacts, side, keep)
    owner = edges.owner[edge]
    box = other.columns.boxes[other_idx[owner]]
    in_box = (box[:, 0] <= mx) & (mx <= box[:, 2]) & (box[:, 1] <= my) & (my <= box[:, 3])
    inside = np.zeros(len(mx), dtype=bool)
    inside[in_box] = slab_parity(other.columns, other_idx[owner[in_box]], mx[in_box], my[in_box])
    return _any(owner[inside], n), outside | _any(owner[~inside], n)


def _witnesses(
    a: GeometrySet, a_idx: np.ndarray, b: GeometrySet, b_idx: np.ndarray,
    pairs: np.ndarray, n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair in ``pairs``: is some representative point of ``a``'s
    geometry not exterior to ``b``'s, and some not interior to it?"""
    any_in = np.zeros(n, dtype=bool)
    any_out = np.zeros(n, dtype=bool)
    if not len(pairs):
        return any_in, any_out
    owner, xs, ys = [], [], []
    for k in pairs.tolist():
        for x, y in a.geometries[int(a_idx[k])].representative_points():
            owner.append(k)
            xs.append(x)
            ys.append(y)
    owner = np.array(owner, dtype=_I8)
    where = locate_many(b.columns, b_idx[owner], np.array(xs), np.array(ys))
    any_in[owner[where != EXTERIOR]] = True
    any_out[owner[where != INTERIOR]] = True
    return any_in, any_out


# ----------------------------------------------------------------------
# edge-array primitives (also the line cases of repro.topology.mixed)
# ----------------------------------------------------------------------
def edge_contacts(
    r: EdgeArrays,
    s: EdgeArrays,
    keep_r: np.ndarray | None = None,
    keep_s: np.ndarray | None = None,
) -> Contacts:
    """Every contact between an edge of ``r`` and an edge of ``s`` with
    the same owner, as :func:`~repro.geometry.segment.segment_intersection`
    (``r``'s edge first) reports it. ``keep_*`` masks restrict the edges
    looked at."""
    rk = np.flatnonzero(keep_r) if keep_r is not None else np.arange(len(r.ax))
    sk = np.flatnonzero(keep_s) if keep_s is not None else np.arange(len(s.ax))
    r_xmin, r_xmax = np.minimum(r.ax[rk], r.bx[rk]), np.maximum(r.ax[rk], r.bx[rk])
    s_xmin, s_xmax = np.minimum(s.ax[sk], s.bx[sk]), np.maximum(s.ax[sk], s.bx[sk])
    # Integer keys: owner * M + x rank, exact on ties.
    uniq, rank = np.unique(np.concatenate([r_xmin, r_xmax, s_xmin, s_xmax]), return_inverse=True)
    m = len(uniq) + 1
    nr, ns = len(rk), len(sk)
    r_lo = r.owner[rk] * m + rank[:nr]
    r_hi = r.owner[rk] * m + rank[nr : 2 * nr]
    s_lo = s.owner[sk] * m + rank[2 * nr : 2 * nr + ns]
    s_hi = s.owner[sk] * m + rank[2 * nr + ns :]
    by_s = np.argsort(s_lo, kind="stable")
    by_r = np.argsort(r_lo, kind="stable")
    s_sorted, r_sorted = s_lo[by_s], r_lo[by_r]
    # An s edge starting within an r edge's x range (ties included), or
    # an r edge starting strictly after an s edge starts and within it.
    bands = (
        (np.searchsorted(s_sorted, r_lo, "left"), np.searchsorted(s_sorted, r_hi, "right"), False),
        (np.searchsorted(r_sorted, s_lo, "right"), np.searchsorted(r_sorted, s_hi, "right"), True),
    )
    found = []
    for lo, hi, flipped in bands:
        for item, offset in _expanded(hi - lo):
            other = (by_r if flipped else by_s)[lo[item] + offset]
            ri, si = (rk[other], sk[item]) if flipped else (rk[item], sk[other])
            y_overlap = (np.minimum(r.ay[ri], r.by[ri]) <= np.maximum(s.ay[si], s.by[si])) & (
                np.minimum(s.ay[si], s.by[si]) <= np.maximum(r.ay[ri], r.by[ri])
            )
            ri, si = ri[y_overlap], si[y_overlap]
            met = _intersect(r.ax[ri], r.ay[ri], r.bx[ri], r.by[ri], s.ax[si], s.ay[si], s.bx[si], s.by[si])
            hit = met[0] != NONE
            found.append((ri[hit], si[hit]) + tuple(a[hit] for a in met))
    if not found:
        empty_i, empty_f = np.zeros(0, _I8), np.zeros(0)
        return Contacts(empty_i, empty_i, np.zeros(0, np.int8), empty_f, empty_f, empty_f, empty_f)
    return Contacts(*(np.concatenate(column) for column in zip(*found)))


def free_midpoints(
    edges: EdgeArrays, contacts: Contacts, side: str, include: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(edge, x, y)`` of the midpoint of every sub-edge of ``edges``
    (those ``include`` selects) cut at ``contacts``' points that does not
    lie on a shared collinear piece. An uncut edge contributes
    ``(a + b) / 2``; a degenerate cut edge contributes nothing."""
    ax, ay, bx, by = edges.ax, edges.ay, edges.bx, edges.by
    n = len(ax)
    cut_edge, cx, cy = contacts.cuts(side)
    cut = np.zeros(n, dtype=bool)
    cut[cut_edge] = True
    plain = ~cut if include is None else include & ~cut
    plain = np.flatnonzero(plain)
    edge_parts = [plain]
    x_parts = [(ax[plain] + bx[plain]) / 2.0]
    y_parts = [(ay[plain] + by[plain]) / 2.0]

    if len(cut_edge):
        dx, dy = bx - ax, by - ay
        norm = dx * dx + dy * dy
        with np.errstate(divide="ignore", invalid="ignore"):
            t = _param(cut_edge, cx, cy, ax, ay, dx, dy, norm)
        cut_edges = np.flatnonzero(cut & (norm != 0.0))
        inner = (t > 0.0) & (t < 1.0) & (norm[cut_edge] != 0.0)
        pos = np.concatenate([cut_edge[inner], cut_edges, cut_edges])
        ts = np.concatenate([t[inner], np.zeros(len(cut_edges)), np.ones(len(cut_edges))])
        order = np.lexsort((ts, pos))
        pos, ts = pos[order], ts[order]
        first = np.ones(len(pos), dtype=bool)
        first[1:] = (pos[1:] != pos[:-1]) | (ts[1:] != ts[:-1])
        pos, ts = pos[first], ts[first]
        same = pos[1:] == pos[:-1]
        span_edge, t0, t1 = pos[:-1][same], ts[:-1][same], ts[1:][same]
        wide = t1 - t0 > _MIN_SPAN
        span_edge, t0, t1 = span_edge[wide], t0[wide], t1[wide]
        tm = (t0 + t1) / 2.0
        free = ~_on_overlap(span_edge, tm, contacts.overlaps(side), ax, ay, dx, dy, norm)
        span_edge, tm = span_edge[free], tm[free]
        edge_parts.append(span_edge)
        x_parts.append(ax[span_edge] + tm * dx[span_edge])
        y_parts.append(ay[span_edge] + tm * dy[span_edge])
    return np.concatenate(edge_parts), np.concatenate(x_parts), np.concatenate(y_parts)


def _param(edge, px, py, ax, ay, dx, dy, norm) -> np.ndarray:
    """Parameter of point ``p`` along its edge (the scalar formula)."""
    return ((px - ax[edge]) * dx[edge] + (py - ay[edge]) * dy[edge]) / norm[edge]


def _on_overlap(span_edge, tm, overlaps, ax, ay, dx, dy, norm) -> np.ndarray:
    """Does sub-edge midpoint parameter ``tm`` of ``span_edge`` fall in
    a shared collinear piece of the same edge?"""
    on = np.zeros(len(tm), dtype=bool)
    ov_edge, px, py, qx, qy = overlaps
    if not len(ov_edge) or not len(tm):
        return on
    t_p = _param(ov_edge, px, py, ax, ay, dx, dy, norm)
    t_q = _param(ov_edge, qx, qy, ax, ay, dx, dy, norm)
    lo, hi = np.minimum(t_p, t_q), np.maximum(t_p, t_q)
    order = np.argsort(ov_edge, kind="stable")
    sorted_edge, lo, hi = ov_edge[order], lo[order], hi[order]
    start = np.searchsorted(sorted_edge, span_edge, "left")
    stop = np.searchsorted(sorted_edge, span_edge, "right")
    for item, offset in _expanded(stop - start):
        k = start[item] + offset
        hit = (lo[k] <= tm[item]) & (tm[item] <= hi[k])
        on[item[hit]] = True
    return on


def _intersect(a1x, a1y, a2x, a2y, b1x, b1y, b2x, b2y) -> tuple[np.ndarray, ...]:
    """:func:`~repro.geometry.segment.segment_intersection` of every
    segment pair ``a1-a2`` × ``b1-b2``: ``(kind, px, py, qx, qy)``."""
    o1 = orientation_signs(a1x, a1y, a2x, a2y, b1x, b1y)
    o2 = orientation_signs(a1x, a1y, a2x, a2y, b2x, b2y)
    o3 = orientation_signs(b1x, b1y, b2x, b2y, a1x, a1y)
    o4 = orientation_signs(b1x, b1y, b2x, b2y, a2x, a2y)
    kind = np.zeros(len(a1x), dtype=np.int8)
    px, py = np.zeros(len(a1x)), np.zeros(len(a1x))
    qx, qy = px.copy(), py.copy()

    collinear = (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)
    crossing = ~collinear & (o1 != o2) & (o3 != o4) & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0)

    # Proper crossings: the float formula of _crossing_point.
    c = np.flatnonzero(crossing)
    dax, day = a2x[c] - a1x[c], a2y[c] - a1y[c]
    dbx, dby = b2x[c] - b1x[c], b2y[c] - b1y[c]
    denom = dax * dby - day * dbx
    t = ((b1x[c] - a1x[c]) * dby - (b1y[c] - a1y[c]) * dbx) / denom
    t = np.minimum(1.0, np.maximum(0.0, t))
    kind[c] = POINT
    px[c], py[c] = a1x[c] + t * dax, a1y[c] + t * day

    # Touches: the first endpoint, in segment_intersection's order, that
    # lies on the other segment.
    rest = ~collinear & ~crossing
    touched = np.zeros(len(a1x), dtype=bool)
    for o, (x, y), (sx1, sy1, sx2, sy2) in (
        (o1, (b1x, b1y), (a1x, a1y, a2x, a2y)),
        (o2, (b2x, b2y), (a1x, a1y, a2x, a2y)),
        (o3, (a1x, a1y), (b1x, b1y, b2x, b2y)),
        (o4, (a2x, a2y), (b1x, b1y, b2x, b2y)),
    ):
        on = rest & ~touched & (o == 0) & _in_span(x, sx1, sx2) & _in_span(y, sy1, sy2)
        px[on], py[on] = x[on], y[on]
        touched |= on
    kind[touched] = POINT

    # Collinear pairs: _collinear_intersection along the dominant axis.
    c = np.flatnonzero(collinear)
    if len(c):
        k_, p_, q_ = _collinear(a1x[c], a1y[c], a2x[c], a2y[c], b1x[c], b1y[c], b2x[c], b2y[c])
        kind[c] = k_
        px[c], py[c] = p_
        qx[c], qy[c] = q_
    return kind, px, py, qx, qy


def _in_span(v, e1, e2) -> np.ndarray:
    return (np.minimum(e1, e2) <= v) & (v <= np.maximum(e1, e2))


def _collinear(a1x, a1y, a2x, a2y, b1x, b1y, b2x, b2y):
    """Vectorised ``_collinear_intersection``: points are ordered by the
    key ``(x, y)`` or ``(y, x)``, whichever axis the segments span more
    of, with Python's tie rules for ``sorted``/``max``/``min``."""
    use_x = np.abs(a2x - a1x) + np.abs(b2x - b1x) >= np.abs(a2y - a1y) + np.abs(b2y - b1y)

    def key(x, y):
        return np.where(use_x, x, y), np.where(use_x, y, x)

    def less(p, q):  # key(p) < key(q), lexicographically
        (p1, p2), (q1, q2) = key(*p), key(*q)
        return (p1 < q1) | ((p1 == q1) & (p2 < q2))

    def pick(mask, p, q):
        return np.where(mask, p[0], q[0]), np.where(mask, p[1], q[1])

    a1, a2, b1, b2 = (a1x, a1y), (a2x, a2y), (b1x, b1y), (b2x, b2y)
    a_first = ~less(a2, a1)  # sorted() is stable: a1 first unless a2 < a1
    b_first = ~less(b2, b1)
    alo, ahi = pick(a_first, a1, a2), pick(a_first, a2, a1)
    blo, bhi = pick(b_first, b1, b2), pick(b_first, b2, b1)
    lo = pick(less(alo, blo), blo, alo)  # max(): the first of equals
    hi = pick(less(bhi, ahi), bhi, ahi)  # min(): the first of equals
    kind = np.where(less(hi, lo), NONE, np.where(less(lo, hi), OVERLAP, POINT)).astype(np.int8)
    return kind, lo, hi


def orientation_signs(px, py, qx, qy, rx, ry) -> np.ndarray:
    """:func:`~repro.geometry.segment.orientation` of every triple
    ``p, q, r``: the float sign where the static error bound vouches for
    it, the exact ``Fraction`` sign elsewhere."""
    detleft = (qx - px) * (ry - py)
    detright = (qy - py) * (rx - px)
    det = detleft - detright
    sign = np.sign(det).astype(np.int8)
    unsure = ((detleft > 0.0) & (detright > 0.0)) | ((detleft < 0.0) & (detright < 0.0))
    unsure &= np.abs(det) < _ORIENT_EPS * np.abs(detleft + detright)
    for k in np.flatnonzero(unsure).tolist():
        sign[k] = _orientation_exact(
            (float(px[k]), float(py[k])), (float(qx[k]), float(qy[k])), (float(rx[k]), float(ry[k]))
        )
    return sign


# ----------------------------------------------------------------------
# point classification
# ----------------------------------------------------------------------
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


def locate_many(
    columns: GeometryColumns, geoms: np.ndarray, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Exact location of point ``k`` against geometry ``geoms[k]``:
    :data:`EXTERIOR`, :data:`BOUNDARY` or :data:`INTERIOR`, as
    :meth:`Polygon.locate`/:meth:`MultiPolygon.locate` answer — a ring's
    boundary found with exact orientation signs, holes and parts
    combined in their order."""
    geoms = np.asarray(geoms, dtype=_I8)
    parts_of = columns.geom_offsets
    rings_of = columns.part_offsets
    # Every (point, ring) of the point's geometry.
    first_ring = rings_of[parts_of[geoms]]
    ring_count = rings_of[parts_of[geoms + 1]] - first_ring
    ring = _ranges(first_ring, ring_count)
    ring_point = np.repeat(np.arange(len(geoms), dtype=_I8), ring_count)
    ring_loc = _locate_in_rings(columns, ring, px[ring_point], py[ring_point])

    out = np.full(len(geoms), EXTERIOR, dtype=np.int8)
    locs = ring_loc.tolist()
    starts = np.concatenate([[0], np.cumsum(ring_count)]).tolist()
    for k in range(len(geoms)):
        g = int(geoms[k])
        base = starts[k] - int(first_ring[k])
        found = EXTERIOR
        for part in range(int(parts_of[g]), int(parts_of[g + 1])):
            shell = int(rings_of[part])
            where = locs[base + shell]
            if where == INTERIOR:
                for hole in range(shell + 1, int(rings_of[part + 1])):
                    inner = locs[base + hole]
                    if inner != EXTERIOR:
                        where = BOUNDARY if inner == BOUNDARY else EXTERIOR
                        break
            if where == INTERIOR:
                found = INTERIOR
                break
            if where == BOUNDARY:
                found = BOUNDARY
        out[k] = found
    return out


def _locate_in_rings(columns: GeometryColumns, ring: np.ndarray, px, py) -> np.ndarray:
    """``locate_point_in_ring`` of point ``k`` against ring ``ring[k]``."""
    offsets = columns.ring_offsets
    start = offsets[ring]
    count = offsets[ring + 1] - start
    xy = columns.coords
    vertex = _ranges(start, count)
    xs, ys = xy[vertex, 0], xy[vertex, 1]
    bounds = np.concatenate([[0], np.cumsum(count)[:-1]])
    in_box = np.zeros(len(ring), dtype=bool)
    if len(ring):
        in_box = (
            (np.minimum.reduceat(xs, bounds) <= px) & (px <= np.maximum.reduceat(xs, bounds))
            & (np.minimum.reduceat(ys, bounds) <= py) & (py <= np.maximum.reduceat(ys, bounds))
        )
    on = np.zeros(len(ring), dtype=bool)
    crossings = np.zeros(len(ring), dtype=_I8)
    probe = np.flatnonzero(in_box)
    for item, offset in _expanded(count[probe]):
        k = probe[item]
        a = start[k] + offset
        b = np.where(offset + 1 == count[k], start[k], a + 1)
        ax, ay, bx, by = xy[a, 0], xy[a, 1], xy[b, 0], xy[b, 1]
        x, y = px[k], py[k]
        near = _in_span(x, ax, bx) & _in_span(y, ay, by)
        hit = np.zeros(len(k), dtype=bool)
        hit[near] = orientation_signs(ax[near], ay[near], bx[near], by[near], x[near], y[near]) == 0
        on[k[hit]] = True
        t = (y - ay) * (bx - ax) - (x - ax) * (by - ay)
        t = np.where(by < ay, -t, t)
        crossings += np.bincount(k[((ay > y) != (by > y)) & (t > 0.0)], minlength=len(ring))
    return np.where(
        ~in_box, EXTERIOR, np.where(on, BOUNDARY, np.where(crossings & 1, INTERIOR, EXTERIOR))
    ).astype(np.int8)


# ----------------------------------------------------------------------
# segmented-array helpers
# ----------------------------------------------------------------------
def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[k], ..., starts[k] + counts[k] - 1`` for every ``k``, end
    to end."""
    counts = np.asarray(counts, dtype=_I8)
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total, dtype=_I8) + np.repeat(np.asarray(starts, dtype=_I8) - (ends - counts), counts)


def _chunks(costs: np.ndarray) -> Iterator[slice]:
    """Consecutive runs of items whose costs sum to at most
    :data:`_BUDGET` (an item costing more forms a run alone)."""
    total = np.cumsum(costs)
    start, n = 0, len(costs)
    while start < n:
        base = int(total[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(total, base + _BUDGET, side="right")))
        yield slice(start, stop)
        start = stop


def _expanded(counts: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(item, offset)`` for ``offset < counts[item]`` of every item, in
    chunks of :func:`_chunks`."""
    counts = np.asarray(counts, dtype=_I8)
    for part in _chunks(counts):
        c = counts[part]
        item = np.repeat(np.arange(part.start, part.stop, dtype=_I8), c)
        if len(item):
            yield item, _ranges(np.zeros(len(c), dtype=_I8), c)


def _gather(columns: GeometryColumns, geoms: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(owner, vertex, succ)`` of every edge of geometries ``geoms``:
    edge ``k`` runs from vertex ``vertex[k]`` to ``succ[k]`` of
    ``columns.coords`` and belongs to ``geoms[owner[k]]``."""
    rings = columns.ring_offsets
    bounds = rings[columns.part_offsets[columns.geom_offsets]]
    starts = bounds[geoms]
    counts = bounds[geoms + 1] - starts
    vertex = _ranges(starts, counts)
    ring = np.searchsorted(rings, vertex, side="right") - 1
    succ = vertex + 1
    closing = succ == rings[ring + 1]
    succ[closing] = rings[ring[closing]]
    return np.repeat(np.arange(len(geoms), dtype=_I8), counts), vertex, succ


def _edge_counts(columns: GeometryColumns, geoms: np.ndarray) -> np.ndarray:
    bounds = columns.ring_offsets[columns.part_offsets[columns.geom_offsets]]
    return bounds[geoms + 1] - bounds[geoms]


def _inside_clip(edges: EdgeArrays, clip: np.ndarray) -> np.ndarray:
    """Edges whose closed MBR meets their pair's clip box."""
    box = clip[edges.owner]
    return ~(
        (np.maximum(edges.ax, edges.bx) < box[:, 0])
        | (np.minimum(edges.ax, edges.bx) > box[:, 2])
        | (np.maximum(edges.ay, edges.by) < box[:, 1])
        | (np.minimum(edges.ay, edges.by) > box[:, 3])
    )


def _any(owners: np.ndarray, n: int) -> np.ndarray:
    """Per owner ``0..n-1``: does it occur in ``owners``?"""
    return np.bincount(owners, minlength=n)[:n] > 0


__all__ = [
    "DISJOINT_MATRIX",
    "Contacts",
    "EdgeArrays",
    "GeometrySet",
    "RelateDetails",
    "edge_contacts",
    "free_midpoints",
    "locate_many",
    "orientation_signs",
    "relate_indexed",
    "relate_many",
    "slab_parity",
]

"""Batched DE-9IM refinement over edge arrays — the refinement step.

:func:`relate_many` computes the DE-9IM matrices of a whole batch of
polygon pairs (every pair a join partition's filters left undecided) in
a fixed number of numpy passes, reading edge endpoints straight from
:class:`~repro.geometry.columns.GeometryColumns`. Per batch:

1. **Clip.** Only edges meeting the pair's MBR overlap can meet the
   other boundary. An edge outside it lies outside the other geometry's
   MBR, so its points are exterior to the other geometry: it proves
   ``BE`` (``EB``) without producing a midpoint. Edges are read through
   the columns' edge-block index
   (:attr:`~repro.geometry.columns.GeometryColumns.edge_blocks`): only
   the blocks whose box meets the clip box are gathered, and an edge of
   any other block lies inside its block's box, outside the clip box.
   Whether a pair has a clipped-away edge, and whether a ring has one,
   follow from counts: the kept edges against the geometry's edge count
   and against the ring's size.
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
4. **Classify** points as interior or exterior of the other geometry
   (even-odd parity). A pair whose boundaries meet classifies the
   midpoint of every non-ON sub-edge. A pair with no contact
   (``BB = F``) classifies one point per ring: each ring is connected
   and never meets the other boundary, so it lies wholly in one region
   of the other geometry. A ring with a clipped-away edge is exterior
   (step 1); every other ring is where the midpoint of its first edge
   is. The even-odd test reads only the other geometry's blocks whose
   closed y range holds one of its points' ys (next note).
5. **Assemble** the matrix. Writing ``rB∩sI`` for "some r sub-edge
   midpoint (or ring point) interior to s" etc., and using that polygon
   interiors are open, connected (per part), and adjacent to every point
   of their boundary:

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

   Without a contact the witnesses add nothing: ``II = BI ∨ IB``,
   ``IE = BE ∨ IB`` and ``EI = EB ∨ BI`` hold exactly. Take ``p`` in
   ``int(r)∩int(s)`` and a path inside the open part of ``int(r)``
   holding ``p`` to a point ``q`` of ``bnd(r)``. ``q`` is not on
   ``bnd(s)``; if ``BI`` fails it is in ``ext(s)``, so the path leaves
   ``int(s)``, crossing ``bnd(s)`` at a point of ``int(r)``: ``IB``.
   For ``p`` in ``int(r)∩ext(s)`` the same path ends in ``int(s)`` if
   ``BE`` fails, and again crosses ``bnd(s)`` inside ``int(r)``; ``EI``
   is the mirror. So :func:`_witnesses` runs only for pairs with
   contacts.

   The representative points are the only use of ``Polygon`` objects:
   they are built only for the pairs that reach this fallback. The nine
   cells and the overlap bit of each pair are one 10-bit code, and its
   :class:`RelateDetails` come from a table filled the first time a
   code occurs.

Three notes on how the passes stay equal to the per-pair scalar code
they replaced (``tests/oracles/relate.py``):

- **Exact signs.** Orientation signs come from one float64 pass with
  :mod:`repro.geometry.segment`'s static error bound; only the elements
  the bound cannot vouch for are re-evaluated with ``Fraction``, so every
  sign equals :func:`~repro.geometry.segment.orientation`'s. Crossing
  points, overlap ends, cut parameters and midpoints use the scalar
  float formulas operation for operation. The one exception is a
  crossing of nearly parallel edges, whose float direction determinant
  is 0: its parameter is exact (as in the scalar code), and the
  sub-edges of both edges, which run closer to the other boundary than
  a float midpoint can resolve, are cut at exact points and classified
  by exact midpoints (``_exact_midpoints``).
- **Parity over sorted points.** Each point is tested only against
  the other geometry's edges that straddle its y, ``min(ay, by) <= y <
  max(ay, by)``. The points are sorted by the exact integer key
  geometry times ``M`` plus the rank of their y among the points' ys.
  Each block of a point's geometry ranks its closed y range against the
  same sorted ys, and only a block that holds some point y is gathered:
  every edge of another block spans a sub-range of its block's, so it
  straddles no point's y and adds no crossing. Each gathered edge ranks
  its two end ys the same way: two ``searchsorted`` calls give it the
  contiguous run of its geometry's points it straddles. The parity bits
  equal those of the dense points-by-edges test, at ``O((P + E') log
  P)`` for ``P`` points and ``E'`` gathered edges (the slab version this
  replaced is ``tests/oracles/parity.py``; the all-edges gather,
  ``tests/oracles/edges.py``). The witnesses' exact location reads, per
  point and ring, only the blocks whose closed y range holds the point's
  y and whose ``xmax`` is not left of it: an edge of any other block
  cannot hold the point, and its crossing with the point's y, if any,
  lies left of the point, so it never counts.
- **Batch chunking.** Every expanded pass — pairs into edges, edges
  into candidate edge pairs, edges into the points they straddle,
  points into the blocks and edges of their rings — is cut into chunks
  of at most :data:`_BUDGET` elements (one item whose own expansion
  exceeds it forms a chunk alone), so the working set of a batch does
  not grow with the batch. A chunk of pairs is costed by its edge
  counts; the blocks it gathers hold at most those edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from repro.geometry.columns import GeometryColumns, ranges as _ranges
from repro.geometry.segment import (
    _ORIENT_EPS,
    _orientation_exact,
    exact_crossing_t,
    orientation,
)
from repro.topology.de9im import DE9IM

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

#: Matrix of two polygons with disjoint MBRs (the paper's Fig. 1 example).
DISJOINT_MATRIX = DE9IM("FFTFFTTTT")

#: The 10-bit code of the disjoint-MBR details: the nine cells in
#: row-major order, then the boundary-overlap bit.
_DISJOINT_CODE = int(DISJOINT_MATRIX.code.replace("T", "1").replace("F", "0") + "0", 2)

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


#: The details of each 10-bit code, made the first time a pair has it.
_DETAILS = np.full(1 << 10, None, dtype=object)


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
    def of_geometries(cls, columns: GeometryColumns, geoms: np.ndarray) -> "EdgeArrays":
        """Every edge of geometries ``geoms`` of ``columns`` (owner ``k``
        for ``geoms[k]``), in ``edges()`` order: ring by ring, each
        ring's closing edge last."""
        owner, block = _geometry_blocks(columns, geoms)
        return cls.of_blocks(columns, owner, block)[0]

    @classmethod
    def of_blocks(
        cls, columns: GeometryColumns, owner: np.ndarray, blocks: np.ndarray
    ) -> tuple["EdgeArrays", np.ndarray]:
        """The edges of ``columns.edge_blocks`` ``blocks`` (owner
        ``owner[j]`` for ``blocks[j]``), in order, and the index of each
        one's block in ``blocks``."""
        start, count, far = _block_spans(columns, blocks)
        vertex = _ranges(start, count)
        item = np.repeat(np.arange(len(blocks), dtype=_I8), count)
        succ = vertex + 1
        succ[np.cumsum(count) - 1] = far
        xy = columns.coords
        edges = cls(owner[item], xy[vertex, 0], xy[vertex, 1], xy[succ, 0], xy[succ, 1])
        return edges, item


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
    #: A crossing of nearly parallel edges (float direction determinant
    #: 0): ``p`` is a rounding of an exact point no float can hold.
    exact: np.ndarray

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

    # Representative-point fallback: only where the boundaries meet and
    # the sub-edges left II, IE or EI open (step 5).
    settled_ii = bi | ib
    need_rs = bb & (~settled_ii | ~(be | ib))
    need_sr = bb & (~settled_ii | ~(eb | bi))
    rs_any_in, rs_any_out = _witnesses(r, r_idx, s, s_idx, np.flatnonzero(need_rs), n)
    sr_any_in, sr_any_out = _witnesses(s, s_idx, r, r_idx, np.flatnonzero(need_sr), n)
    ii = settled_ii | rs_any_in | sr_any_in
    ie = be | ib | rs_any_out
    ei = eb | bi | sr_any_out

    # One code per pair: the nine cells (EE = T) then the overlap bit.
    code = np.zeros(n, dtype=_I8)
    for cell in (ii, ib, ie, bi, bb, be, ei, eb, live_mask, overlap):
        code = (code << 1) | cell
    code[~live_mask] = _DISJOINT_CODE
    for c in np.flatnonzero(np.bincount(code)).tolist():
        if _DETAILS[c] is None:
            cells = "".join("FT"[c >> (9 - k) & 1] for k in range(9))
            _DETAILS[c] = RelateDetails(DE9IM(cells), bool(c & 1))
    return _DETAILS[code].tolist()


def _refine(
    r: GeometrySet, r_idx: np.ndarray, s: GeometrySet, s_idx: np.ndarray, clip: np.ndarray
) -> np.ndarray:
    """Steps 1–4 of the module docstring for one chunk of live pairs:
    rows BB, boundary overlap, BI, BE, IB, EB."""
    n = len(r_idx)
    er, clipped_r, lone_r = _clip_edges(r.columns, r_idx, clip)
    es, clipped_s, lone_s = _clip_edges(s.columns, s_idx, clip)
    contacts = edge_contacts(er, es)

    pair_of_contact = er.owner[contacts.r]
    bb = _any(pair_of_contact, n)
    overlap = _any(pair_of_contact[contacts.kind == OVERLAP], n)
    bi, be = _classify_side(er, clipped_r, lone_r, contacts, "r", s, s_idx, bb)
    ib, eb = _classify_side(es, clipped_s, lone_s, contacts, "s", r, r_idx, bb)
    return np.stack([bb, overlap, bi, be, ib, eb])


def _clip_edges(
    columns: GeometryColumns, geoms: np.ndarray, clip: np.ndarray
) -> tuple[EdgeArrays, np.ndarray, np.ndarray]:
    """Step 1 for one side: the edges of geometries ``geoms`` (owner
    ``k`` for ``geoms[k]``) whose closed MBR meets ``clip[k]``, read
    from the blocks whose box meets it; per owner, was some edge
    clipped away; per kept edge, is it the first edge of a ring none
    of whose edges was."""
    owner, block = _geometry_blocks(columns, geoms)
    box, cb = columns.edge_blocks.boxes[block], clip[owner]
    meets = (
        (box[:, 0] <= cb[:, 2]) & (cb[:, 0] <= box[:, 2]) & (box[:, 1] <= cb[:, 3]) & (cb[:, 1] <= box[:, 3])
    )
    block = block[meets]
    edges, item = EdgeArrays.of_blocks(columns, owner[meets], block)
    keep = np.flatnonzero(_inside_clip(edges, clip))
    edges = EdgeArrays(*(a[keep] for a in edges))
    ring = columns.edge_blocks.ring[block[item[keep]]]
    clipped = np.bincount(edges.owner, minlength=len(geoms)) < _edge_counts(columns, geoms)
    # Kept edges come in (owner, ring) runs; a run as long as its ring
    # is the whole ring, and starts with the ring's first edge.
    new = np.ones(len(ring), dtype=bool)
    new[1:] = (ring[1:] != ring[:-1]) | (edges.owner[1:] != edges.owner[:-1])
    starts = np.flatnonzero(new)
    length = np.diff(np.append(starts, len(ring)))
    rings = columns.ring_offsets
    lone = np.zeros(len(ring), dtype=bool)
    lone[starts[length == rings[ring[starts] + 1] - rings[ring[starts]]]] = True
    return edges, clipped, lone


def _classify_side(
    edges: EdgeArrays,
    clipped: np.ndarray,
    lone: np.ndarray,
    contacts: Contacts,
    side: str,
    other: GeometrySet,
    other_idx: np.ndarray,
    touching: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair: does some sub-edge of this side's boundary lie in the
    other geometry's interior, and some in its exterior? ``touching``
    says which pairs' boundaries meet (step 4); ``clipped`` and
    ``lone`` are :func:`_clip_edges`'."""
    n = len(other_idx)
    # Every sub-edge of a pair that touches; one uncut edge per unclipped
    # ring of a pair that does not. Clipped-away edges lie outside the
    # other MBR: exterior outright.
    chosen = touching[edges.owner] | lone
    edge, mx, my = free_midpoints(edges, contacts, side, chosen)
    # An edge cut at a nearly parallel crossing runs closer to the other
    # boundary than a float midpoint can resolve: it is classified exactly.
    shaky = np.zeros(len(edges.owner), dtype=bool)
    shaky[(contacts.r if side == "r" else contacts.s)[contacts.exact]] = True
    sure = ~shaky[edge]
    edge, mx, my = edge[sure], mx[sure], my[sure]
    owner = edges.owner[edge]
    box = other.columns.boxes[other_idx[owner]]
    in_box = (box[:, 0] <= mx) & (mx <= box[:, 2]) & (box[:, 1] <= my) & (my <= box[:, 3])
    inside = np.zeros(len(mx), dtype=bool)
    inside[in_box] = parity_many(other.columns, other_idx[owner[in_box]], mx[in_box], my[in_box])
    any_in, any_out = _any(owner[inside], n), clipped | _any(owner[~inside], n)
    for e in np.flatnonzero(shaky).tolist():
        k = int(edges.owner[e])
        theirs = EdgeArrays.of_geometries(other.columns, other_idx[k : k + 1])
        ends = (edges.ax[e], edges.ay[e]), (edges.bx[e], edges.by[e])
        for x, y in _exact_midpoints(*ends, theirs):
            where = _locate_exact(theirs, x, y)
            any_in[k] |= where == INTERIOR
            any_out[k] |= where == EXTERIOR
    return any_in, any_out


def _exact_midpoints(p1, p2, other: EdgeArrays) -> list[tuple[Fraction, Fraction]]:
    """Exact midpoints of the pieces of segment ``p1``–``p2`` between the
    points where it meets ``other``'s edges: exact crossing points, and
    the vertices of ``other`` on it (which end every shared piece)."""
    from fractions import Fraction  # only an exact fallback needs it

    ax, ay = map(Fraction, p1)
    dx, dy = Fraction(p2[0]) - ax, Fraction(p2[1]) - ay
    cuts = {Fraction(0), Fraction(1)}
    for q1, q2 in zip(zip(other.ax.tolist(), other.ay.tolist()), zip(other.bx.tolist(), other.by.tolist())):
        o1, o2 = orientation(p1, p2, q1), orientation(p1, p2, q2)
        if o1 * o2 < 0 and orientation(q1, q2, p1) * orientation(q1, q2, p2) < 0:
            cuts.add(exact_crossing_t(p1, p2, q1, q2))
        for q, o in ((q1, o1), (q2, o2)):
            t = ((Fraction(q[0]) - ax) * dx + (Fraction(q[1]) - ay) * dy) / (dx * dx + dy * dy)
            if o == 0 and 0 < t < 1:
                cuts.add(t)
    cuts = sorted(cuts)
    return [(ax + (s + t) / 2 * dx, ay + (s + t) / 2 * dy) for s, t in zip(cuts, cuts[1:])]


def _locate_exact(edges: EdgeArrays, x: Fraction, y: Fraction) -> int:
    """Location of the exact point ``(x, y)`` against a geometry's
    ``edges``: even-odd parity, rational arithmetic throughout."""
    from fractions import Fraction

    inside = False
    ends = (edges.ax, edges.ay, edges.bx, edges.by)
    for ax, ay, bx, by in zip(*(map(Fraction, v.tolist()) for v in ends)):
        cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        if cross == 0 and min(ax, bx) <= x <= max(ax, bx) and min(ay, by) <= y <= max(ay, by):
            return BOUNDARY
        if (ay > y) != (by > y) and (cross > 0) == (by > ay):
            inside = not inside
    return INTERIOR if inside else EXTERIOR


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
# edge-array primitives
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
        return Contacts(
            empty_i, empty_i, np.zeros(0, np.int8), empty_f, empty_f, empty_f, empty_f,
            np.zeros(0, dtype=bool),
        )
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
    segment pair ``a1-a2`` × ``b1-b2``: ``(kind, px, py, qx, qy,
    exact)``, ``exact`` marking the nearly parallel crossings whose
    point came from an exact parameter."""
    o1 = orientation_signs(a1x, a1y, a2x, a2y, b1x, b1y)
    o2 = orientation_signs(a1x, a1y, a2x, a2y, b2x, b2y)
    o3 = orientation_signs(b1x, b1y, b2x, b2y, a1x, a1y)
    o4 = orientation_signs(b1x, b1y, b2x, b2y, a2x, a2y)
    kind = np.zeros(len(a1x), dtype=np.int8)
    px, py = np.zeros(len(a1x)), np.zeros(len(a1x))
    qx, qy = px.copy(), py.copy()
    exact = np.zeros(len(a1x), dtype=bool)

    collinear = (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)
    crossing = ~collinear & (o1 != o2) & (o3 != o4) & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0)

    # Proper crossings: the float formula of _crossing_point.
    c = np.flatnonzero(crossing)
    dax, day = a2x[c] - a1x[c], a2y[c] - a1y[c]
    dbx, dby = b2x[c] - b1x[c], b2y[c] - b1y[c]
    denom = dax * dby - day * dbx
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = ((b1x[c] - a1x[c]) * dby - (b1y[c] - a1y[c]) * dbx) / denom
    # Nearly parallel crossings whose float determinant is 0: exact t.
    near = ~np.isfinite(t)
    for k in np.flatnonzero(near).tolist():
        i = c[k]
        t[k] = float(exact_crossing_t(
            (a1x[i], a1y[i]), (a2x[i], a2y[i]), (b1x[i], b1y[i]), (b2x[i], b2y[i])
        ))
    exact[c[near]] = True
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
    return kind, px, py, qx, qy, exact


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
def parity_many(columns: GeometryColumns, geoms: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Even-odd parity of point ``k`` against every edge of geometry
    ``geoms[k]`` (holes and parts included): True means inside for a
    point off the boundary. Each edge meets only the points it straddles."""
    out = np.zeros(len(px), dtype=bool)
    if not len(px):
        return out
    distinct, local = np.unique(geoms, return_inverse=True)
    # Points sorted by the exact integer key slot * M + rank of y. Edge e
    # straddles y iff min(ay, by) <= y < max(ay, by): the run of its
    # geometry's points whose y rank lies in [rank of its low end, rank
    # of its high end), each end ranked by the point ys below it.
    ys, rank = np.unique(py, return_inverse=True)
    m = len(ys) + 1
    key = local.reshape(-1) * m + rank.reshape(-1)
    order = np.argsort(key, kind="stable")
    keys = key[order]
    # Only a block whose closed y range holds a point y of its geometry
    # can hold an edge that straddles one.
    slot, block = _geometry_blocks(columns, distinct)
    box = columns.edge_blocks.boxes[block]
    lo = np.searchsorted(keys, slot * m + np.searchsorted(ys, box[:, 1], "left"), "left")
    hi = np.searchsorted(keys, slot * m + np.searchsorted(ys, box[:, 3], "right"), "left")
    held = hi > lo
    edges = EdgeArrays.of_blocks(columns, slot[held], block[held])[0]
    ax, ay, bx, by = edges.ax, edges.ay, edges.bx, edges.by
    base = edges.owner * m
    lo = np.searchsorted(keys, base + np.searchsorted(ys, np.minimum(ay, by), "left"), "left")
    hi = np.searchsorted(keys, base + np.searchsorted(ys, np.maximum(ay, by), "left"), "left")
    crossings = np.zeros(len(px), dtype=_I8)
    for e, offset in _expanded(hi - lo):
        k = order[lo[e] + offset]
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
    """``locate_point_in_ring`` of point ``k`` against ring ``ring[k]``.
    Only the ring's blocks whose closed y range holds ``py[k]`` and
    whose ``xmax >= px[k]`` can hold an edge the point is on or whose
    crossing lies right of it."""
    index = columns.edge_blocks
    first = index.ring_blocks[ring]
    count = index.ring_blocks[ring + 1] - first
    block = _ranges(first, count)
    box = index.boxes[block]
    bounds = np.concatenate([[0], np.cumsum(count)[:-1]])
    in_box = np.zeros(len(ring), dtype=bool)
    if len(ring):
        in_box = (
            (np.minimum.reduceat(box[:, 0], bounds) <= px) & (px <= np.maximum.reduceat(box[:, 2], bounds))
            & (np.minimum.reduceat(box[:, 1], bounds) <= py) & (py <= np.maximum.reduceat(box[:, 3], bounds))
        )
    point = np.repeat(np.arange(len(ring), dtype=_I8), count)
    x, y = px[point], py[point]
    held = in_box[point] & (box[:, 1] <= y) & (y <= box[:, 3]) & (x <= box[:, 2])
    point, block = point[held], block[held]
    start, count, far = _block_spans(columns, block)
    xy = columns.coords
    on = np.zeros(len(ring), dtype=bool)
    crossings = np.zeros(len(ring), dtype=_I8)
    for item, offset in _expanded(count):
        k = point[item]
        a = start[item] + offset
        b = np.where(offset + 1 == count[item], far[item], a + 1)
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


def _geometry_blocks(columns: GeometryColumns, geoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, block)`` of every block of geometries ``geoms``, in
    order: block ``block[j]`` of ``columns.edge_blocks`` belongs to
    ``geoms[owner[j]]``."""
    blocks = columns.edge_blocks.geom_blocks
    first = blocks[geoms]
    count = blocks[geoms + 1] - first
    return np.repeat(np.arange(len(geoms), dtype=_I8), count), _ranges(first, count)


def _block_spans(columns: GeometryColumns, blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(start, count, far)`` of ``blocks``: their edges start at
    vertices ``start .. start + count - 1``, and the last one ends at
    vertex ``far`` (its ring's first vertex when it closes the ring)."""
    index, rings = columns.edge_blocks, columns.ring_offsets
    start, stop = index.offsets[blocks], index.offsets[blocks + 1]
    ring = index.ring[blocks]
    return start, stop - start, np.where(stop == rings[ring + 1], rings[ring], stop)


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
    "parity_many",
    "relate_indexed",
    "relate_many",
]

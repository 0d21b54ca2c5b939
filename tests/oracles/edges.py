"""The all-edges refinement passes the edge-block index replaced.

Until :attr:`repro.geometry.columns.GeometryColumns.edge_blocks`, the
batched DE-9IM kernel (:mod:`repro.topology.kernel`) read every edge of
every geometry it touched: step 1 gathered all edges of both
geometries of each pair and masked those outside the pair's clip box,
the parity pass gathered all edges of every geometry a point was tested
against, and the witness fallback walked every edge of every ring whose
MBR held the point. Those bodies are here verbatim — ``_refine`` and
``_classify_side`` over the six-field :class:`EdgeArrays` (with its
``ring`` column), :func:`parity_many`, :func:`_locate_in_rings` and the
per-edge :func:`_gather` — and :func:`relate_indexed` /
:func:`locate_many` run the kernel's own batch with them swapped in.
The kernel reads only blocks whose box can matter, so its codes, bits
and locations must equal these on any input
(``tests/test_edge_blocks.py``).
"""

from __future__ import annotations

from typing import NamedTuple
from unittest import mock

import numpy as np

from repro.geometry.columns import GeometryColumns, ranges as _ranges
from repro.topology import kernel
from repro.topology.kernel import (
    EXTERIOR,
    BOUNDARY,
    INTERIOR,
    OVERLAP,
    Contacts,
    GeometrySet,
    _any,
    _exact_midpoints,
    _expanded,
    _in_span,
    _inside_clip,
    _locate_exact,
    edge_contacts,
    free_midpoints,
    orientation_signs,
)

_I8 = np.int64


def relate_indexed(r: GeometrySet, r_idx, s: GeometrySet, s_idx) -> list:
    """:func:`repro.topology.kernel.relate_indexed` over all edges."""
    with mock.patch.multiple(kernel, _refine=_refine, _locate_in_rings=_locate_in_rings):
        return kernel.relate_indexed(r, r_idx, s, s_idx)


def locate_many(columns: GeometryColumns, geoms, px, py) -> np.ndarray:
    """:func:`repro.topology.kernel.locate_many` over all edges."""
    with mock.patch.object(kernel, "_locate_in_rings", _locate_in_rings):
        return kernel.locate_many(columns, geoms, px, py)


class EdgeArrays(NamedTuple):
    """Edges ``(ax, ay) -> (bx, by)``; ``owner`` says whose each is,
    ``ring`` which of the arrays' rings (numbered from 0 in order)."""

    owner: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    ring: np.ndarray

    @classmethod
    def of_geometries(cls, columns: GeometryColumns, geoms: np.ndarray) -> "EdgeArrays":
        """Every edge of geometries ``geoms`` of ``columns`` (owner ``k``
        for ``geoms[k]``), in ``edges()`` order: ring by ring, each
        ring's closing edge last."""
        owner, vertex, succ = _gather(columns, geoms)
        xy = columns.coords
        # A ring starts after the previous edge closed one.
        first = np.ones(len(vertex), dtype=bool)
        first[1:] = succ[:-1] != vertex[:-1] + 1
        ring = np.cumsum(first) - 1
        return cls(owner, xy[vertex, 0], xy[vertex, 1], xy[succ, 0], xy[succ, 1], ring)


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
    bi, be = _classify_side(er, keep_r, contacts, "r", s, s_idx, bb)
    ib, eb = _classify_side(es, keep_s, contacts, "s", r, r_idx, bb)
    return np.stack([bb, overlap, bi, be, ib, eb])


def _classify_side(
    edges: EdgeArrays,
    keep: np.ndarray,
    contacts: Contacts,
    side: str,
    other: GeometrySet,
    other_idx: np.ndarray,
    touching: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair: does some sub-edge of this side's boundary lie in the
    other geometry's interior, and some in its exterior? ``touching``
    says which pairs' boundaries meet (step 4)."""
    n = len(other_idx)
    # Clipped-away edges lie outside the other MBR: exterior outright,
    # and so is the whole ring of one when the boundaries never meet.
    outside = _any(edges.owner[~keep], n)
    clipped_ring = _any(edges.ring[~keep], int(edges.ring[-1]) + 1 if len(edges.ring) else 0)
    first = np.diff(edges.ring, prepend=-1).astype(bool)
    # Every sub-edge of a pair that touches; one uncut edge per unclipped
    # ring of a pair that does not.
    chosen = keep & (touching[edges.owner] | (first & ~clipped_ring[edges.ring]))
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
    any_in, any_out = _any(owner[inside], n), outside | _any(owner[~inside], n)
    for e in np.flatnonzero(shaky).tolist():
        k = int(edges.owner[e])
        theirs = EdgeArrays.of_geometries(other.columns, other_idx[k : k + 1])
        ends = (edges.ax[e], edges.ay[e]), (edges.bx[e], edges.by[e])
        for x, y in _exact_midpoints(*ends, theirs):
            where = _locate_exact(theirs, x, y)
            any_in[k] |= where == INTERIOR
            any_out[k] |= where == EXTERIOR
    return any_in, any_out


def parity_many(columns: GeometryColumns, geoms: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Even-odd parity of point ``k`` against every edge of geometry
    ``geoms[k]`` (holes and parts included): True means inside for a
    point off the boundary. Each edge meets only the points it straddles."""
    out = np.zeros(len(px), dtype=bool)
    if not len(px):
        return out
    distinct, local = np.unique(geoms, return_inverse=True)
    owner, vertex, succ = _gather(columns, distinct)
    xy = columns.coords
    ax, ay, bx, by = xy[vertex, 0], xy[vertex, 1], xy[succ, 0], xy[succ, 1]
    # Points sorted by the exact integer key slot * M + rank of y. Edge e
    # straddles y iff min(ay, by) <= y < max(ay, by): the run of its
    # geometry's points whose y rank lies in [rank of its low end, rank
    # of its high end), each end ranked by the point ys below it.
    ys, rank = np.unique(py, return_inverse=True)
    m = len(ys) + 1
    key = local.reshape(-1) * m + rank.reshape(-1)
    order = np.argsort(key, kind="stable")
    keys = key[order]
    base = owner * m
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



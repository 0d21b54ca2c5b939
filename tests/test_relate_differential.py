"""Differential suite: the batched DE-9IM kernel vs its predecessor.

``repro.topology.kernel.relate_many`` must return exactly the
:class:`RelateDetails` of the per-pair scalar refinement it replaced
(``tests/oracles/relate.py``), pair for pair — run as one batch, as
random splits of the batch, and with the element budget cut to 1 so
that every expanded pass runs chunked. On small inputs both must also
agree with the exact ``Fraction`` oracle (``tests/oracles/relate_exact.py``).

Inputs: the soundness fuzzer's polygons, slivers, holes touching the
shell, shared collinear edges, a vertex on an edge, web-mercator
magnitudes, multipolygons, and every MBR-candidate pair of each
benchmark workload at smoke size.
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import MultiPolygon, Polygon
from repro.topology import DE9IM
from repro.geometry.segment import SegmentIntersectionKind, orientation, segment_intersection
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.topology import kernel
from repro.topology.kernel import orientation_signs, relate_many
from tests.oracles import relate as predecessor
from tests.oracles.relate_exact import relate_exact
from tests.test_fuzz_soundness import small_polygons

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: A web-mercator offset: coordinates around 2·10⁷.
MERCATOR = (2.0037508342789244e7, -1.3e7)

MODES = ("one-batch", "splits", "budget-1")


def batched(pairs, mode):
    """``relate_many`` over ``pairs`` the way ``mode`` says."""
    if mode == "budget-1":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_BUDGET", 1)
            return relate_many(pairs)
    if mode == "splits":
        rng = random.Random(len(pairs))
        out, k = [], 0
        while k < len(pairs):
            n = rng.randint(1, 7)
            out += relate_many(pairs[k : k + n])
            k += n
        return out
    return relate_many(pairs)


def assert_matches_predecessor(pairs, mode):
    got = batched(pairs, mode)
    want = [predecessor.relate_details(r, s) for r, s in pairs]
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, (k, pairs[k])


def box(x0, y0, x1, y1):
    return Polygon.box(x0, y0, x1, y1)


SQUARE = box(0, 0, 10, 10)
#: A hole touching the shell at (0, 5), a point of the shell's left edge.
TOUCHING_HOLE = Polygon(SQUARE.shell, [[(0, 5), (3, 3), (3, 7)]])
TWO_PART = MultiPolygon([box(0, 0, 4, 4), box(6, 6, 10, 10)])

HAND_CASES = {
    "sliver on an edge": (SQUARE, Polygon([(0, 0), (10, 1e-9), (10, 0)])),
    "sliver across": (SQUARE, Polygon([(-5, 5), (15, 5 + 1e-9), (15, 5)])),
    "sliver along a diagonal": (
        Polygon([(0, 0), (10, 10), (0, 10)]),
        Polygon([(0, 0), (10, 10 - 1e-12), (10, 10)]),
    ),
    "hole touching shell vs bar": (TOUCHING_HOLE, box(1, 4, 5, 6)),
    "hole touching shell vs outside": (TOUCHING_HOLE, box(-2, 4, 0, 6)),
    "hole touching shell vs its hole": (TOUCHING_HOLE, Polygon([(0, 5), (3, 3), (3, 7)])),
    "shared edge": (SQUARE, box(10, 2, 20, 8)),
    "partly shared edge": (SQUARE, box(5, 10, 15, 20)),
    "equal": (SQUARE, box(0, 0, 10, 10)),
    "equal, extra collinear vertices": (
        SQUARE, Polygon([(0, 0), (5, 0), (10, 0), (10, 10), (0, 10), (0, 4)])
    ),
    "inside, sharing two edges": (SQUARE, box(0, 0, 5, 5)),
    "vertex on edge": (SQUARE, Polygon([(5, 0), (7, -3), (3, -3)])),
    "vertex on edge, inside": (SQUARE, Polygon([(5, 0), (7, 3), (3, 3)])),
    "corner touch": (SQUARE, box(10, 10, 12, 12)),
    "multipolygon vs middle": (TWO_PART, box(3, 3, 7, 7)),
    "multipolygon vs gap": (TWO_PART, box(4.5, 4.5, 5.5, 5.5)),
    "multipolygon vs cover": (TWO_PART, SQUARE),
    "multipolygon vs itself": (TWO_PART, MultiPolygon([box(0, 0, 4, 4), box(6, 6, 10, 10)])),
    "multipolygon vs one part": (TWO_PART, box(6, 6, 10, 10)),
}


def hand_pairs():
    pairs = []
    for name, (r, s) in HAND_CASES.items():
        for a, b in ((r, s), (s, r)):
            pairs.append((a, b))
            if not name.startswith("sliver"):  # slivers collapse at 2·10⁷
                pairs.append((a.translated(*MERCATOR), b.translated(*MERCATOR)))
    return pairs


@pytest.mark.parametrize("mode", MODES)
def test_hand_cases_match_predecessor(mode):
    assert_matches_predecessor(hand_pairs(), mode)


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_hand_cases_match_exact_oracle(name):
    r, s = HAND_CASES[name]
    for a, b in ((r, s), (s, r)):
        exact = relate_exact(a, b)
        assert relate_many([(a, b)])[0] == exact
        assert predecessor.relate_details(a, b) == exact


@st.composite
def geometries(draw):
    geometry = draw(small_polygons())
    if draw(st.integers(0, 4)) == 0:
        geometry = MultiPolygon([geometry, draw(small_polygons()).translated(60, 0)])
    return geometry


@st.composite
def batches(draw):
    pairs = draw(st.lists(st.tuples(geometries(), geometries()), min_size=1, max_size=12))
    if draw(st.booleans()):
        pairs = [(r.translated(*MERCATOR), s.translated(*MERCATOR)) for r, s in pairs]
    return pairs


@pytest.mark.parametrize("mode", MODES)
@given(batches())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_batches_match_predecessor(mode, pairs):
    assert_matches_predecessor(pairs, mode)


@given(geometries(), geometries())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_pairs_match_exact_oracle(r, s):
    exact = relate_exact(r, s)
    assert relate_many([(r, s)])[0] == exact
    assert predecessor.relate_details(r, s) == exact


#: A blob whose vertex lies one ulp inside another blob's vertex: the two
#: overlap in a sliver whose sub-edges are shorter than ``_MIN_SPAN`` of
#: their edges (found by ``test_fuzzed_pairs_match_exact_oracle``).
ULP_OVERLAP = (
    Polygon([
        (9.6691944948829, 17.0), (4.869147810753223, 22.75264544570236),
        (-4.176028010376221, 22.21368953169602), (-0.9848071583144926, 14.104868133584331),
        (5.62249286305459, 8.928796889017287),
    ]),
    Polygon([
        (23.669194494882902, 17.0), (20.66540275255855, 23.348663797634224),
        (13.665402752558553, 22.77569185534792), (9.669194494882898, 17.0),
        (13.665402752558547, 11.224308144652085), (20.665402752558553, 10.651336202365776),
    ]),
)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: sub-edges shorter than _MIN_SPAN are dropped, so an overlap "
    "that narrow reads as a touch (II, IB and BI F); the predecessor drops them too",
)
def test_one_ulp_overlap_matches_exact_oracle():
    r, s = ULP_OVERLAP
    assert relate_exact(r, s).matrix.code == "TTTTTTTTT"
    assert predecessor.relate_details(r, s) == relate_many([(r, s)])[0]
    assert relate_many([(r, s)])[0] == relate_exact(r, s)


def workload_pairs(name):
    """Every MBR-candidate pair of a benchmark workload at smoke size."""
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import MAP_SEED, WORKLOADS
    finally:
        sys.path.remove(str(BENCH))
    workload = WORKLOADS[name]
    r, s = workload.generate([MAP_SEED, workload.index], 0.25)
    candidates = plane_sweep_mbr_join([p.bbox for p in r], [p.bbox for p in s])
    return [(r[i], s[j]) for i, j in sorted(candidates)]


@pytest.mark.parametrize(
    "name", ["lakes_parks", "buildings_parks", "counties_zips", "buildings_in_parks"]
)
def test_workload_pairs_match_predecessor(name):
    pairs = workload_pairs(name)
    assert pairs
    for mode in MODES:
        assert_matches_predecessor(pairs, mode)


class TestBudget:
    """Every expanded pass runs in chunks of at most ``_BUDGET``
    elements, and chunking never changes an answer."""

    def test_over_budget_batch_is_split_and_identical(self, monkeypatch):
        pairs = hand_pairs() + workload_pairs("counties_zips")[:40]
        whole = relate_many(pairs)
        budget = 256
        chunks = []
        real = kernel._chunks

        def spy(costs):
            for part in real(costs):
                chunks.append((int(np.sum(costs[part])), part.stop - part.start))
                yield part

        monkeypatch.setattr(kernel, "_BUDGET", budget)
        monkeypatch.setattr(kernel, "_chunks", spy)
        assert relate_many(pairs) == whole
        assert len(chunks) > 1
        # A chunk over the budget is one item whose own expansion is.
        assert all(total <= budget or items == 1 for total, items in chunks)
        assert sum(total for total, _ in chunks) > budget


#: Two nearly parallel segments whose exact orientation signs say they
#: cross, while the float determinant of their directions is 0.
NEAR_PARALLEL = (
    (-3.166666666666667, -1.0), (-0.16666666666666674, 0.3333333333333333),
    (-1.6666666666666667, -0.3333333333333333), (1.3333333333333333, 1.0),
)


class TestPrimitives:
    """The kernel's sign and segment passes against the scalar
    predicates they replace, on inputs where float64 alone goes wrong."""

    def test_orientation_signs_are_exact(self):
        # Kettner et al., "Classroom examples of robustness problems in
        # geometric computations": p moved by a few ulps around (0.5,
        # 0.5) against q = (12, 12), r = (24, 24), where the plain float
        # determinant gets many signs wrong.
        ulp = 2.0 ** -53
        px, py = (a.ravel() for a in np.meshgrid(
            0.5 + ulp * np.arange(64), 0.5 + ulp * np.arange(64)))
        q, r = np.full(len(px), 12.0), np.full(len(px), 24.0)
        got = orientation_signs(px, py, q, q, r, r)
        want = [orientation((x, y), (12.0, 12.0), (24.0, 24.0)) for x, y in zip(px, py)]
        naive = np.sign((q - px) * (r - py) - (q - py) * (r - px))
        assert (naive != np.array(want)).any()  # the inputs are adversarial
        assert got.tolist() == want

    def test_intersect_equals_segment_intersection(self):
        rng = np.random.default_rng(33)
        n = 6000
        # Lattice or thirds (inexact) coordinates.
        scale = rng.choice([1.0, 3.0], (n, 1))
        a1, a2 = rng.integers(-8, 9, (2, n, 2)) / scale
        # b's ends: on a (dyadic steps), on a's line beyond it, near a
        # (thirds), or anywhere.
        t = rng.choice([0.0, 0.25, 0.5, 1.0, 1.5, -0.5, 1 / 3, 2 / 3], (2, n, 1))
        on_line = a1 + t * (a2 - a1)
        anywhere = rng.integers(-8, 9, (2, n, 2)) / scale
        pick = rng.integers(0, 3, (2, n, 1))
        b1, b2 = np.where(pick == 0, anywhere, on_line)
        # Half the pairs swap roles, so a's ends land on b as well.
        swap = rng.integers(0, 2, (n, 1)).astype(bool)
        a1, b1 = np.where(swap, b1, a1), np.where(swap, a1, b1)
        a2, b2 = np.where(swap, b2, a2), np.where(swap, a2, b2)
        # ...and NEAR_PARALLEL, either way round, after them.
        near = np.array(NEAR_PARALLEL)
        a1, a2, b1, b2 = (
            np.concatenate([v, near[[k, (k + 2) % 4]]])
            for k, v in enumerate((a1, a2, b1, b2))
        )
        n += 2
        kind, px, py, qx, qy, exact = kernel._intersect(
            a1[:, 0], a1[:, 1], a2[:, 0], a2[:, 1], b1[:, 0], b1[:, 1], b2[:, 0], b2[:, 1])
        codes = {SegmentIntersectionKind.NONE: kernel.NONE,
                 SegmentIntersectionKind.CROSSING: kernel.POINT,
                 SegmentIntersectionKind.TOUCH: kernel.POINT,
                 SegmentIntersectionKind.OVERLAP: kernel.OVERLAP}
        seen = set()
        for k in range(n):
            ends = [tuple(map(float, v[k])) for v in (a1, a2, b1, b2)]
            want = segment_intersection(*ends)
            seen.add(want.kind)
            assert kind[k] == codes[want.kind], k
            if want.kind is not SegmentIntersectionKind.NONE:
                assert (px[k], py[k]) == want.points[0], k
            if want.kind is SegmentIntersectionKind.OVERLAP:
                assert (qx[k], qy[k]) == want.points[1], k
        assert seen == set(SegmentIntersectionKind)
        near_rows = [segment_intersection(*(tuple(v[k]) for v in (a1, a2, b1, b2)))
                     for k in (n - 2, n - 1)]
        assert {w.kind for w in near_rows} == {SegmentIntersectionKind.CROSSING}
        assert np.isfinite(px[-2:]).all() and np.isfinite(py[-2:]).all()
        assert exact[n - 2:].all()
        assert (kind[exact] == kernel.POINT).all()


def test_near_parallel_crossing_matches_exact_oracle():
    # A float division by the 0 determinant once made the crossing point
    # NaN (kernel) or raised ZeroDivisionError (scalar), and the pair
    # read as meets; now t is exact, and so are the sub-edges of both
    # edges, which run closer to each other than a float can resolve.
    a1, a2, b1, b2 = NEAR_PARALLEL
    r = Polygon([a1, a2, (a2[0], a1[1])])
    s = Polygon([b1, b2, (b1[0], b2[1])])
    assert relate_exact(r, s).matrix == DE9IM("TTTTTTTTT")
    assert relate_many([(r, s)])[0] == relate_exact(r, s)


def near_parallel_triangles(rng, count):
    """Triangle pairs on two nearly parallel edges that properly cross
    while the float determinant of their directions is 0: ``b`` lies on
    ``a``'s line up to the rounding of thirds and sixths."""
    pairs = []
    while len(pairs) < count:
        a1, a2 = (tuple((rng.integers(-12, 13, 2) / 3 + rng.choice([0, 1 / 6], 2)).tolist())
                  for _ in range(2))
        t1, t2 = rng.choice([1 / 3, 2 / 3, 0.5, -0.5, 1.5, 0.25, 1 / 6, 5 / 6, 4 / 3], 2)
        b1, b2 = (tuple(float(a1[i] + t * (a2[i] - a1[i])) for i in range(2)) for t in (t1, t2))
        if a1 == a2 or b1 == b2 or (a2[0] - a1[0]) * (b2[1] - b1[1]) != (a2[1] - a1[1]) * (b2[0] - b1[0]):
            continue
        signs = [orientation(a1, a2, b1), orientation(a1, a2, b2),
                 orientation(b1, b2, a1), orientation(b1, b2, a2)]
        if signs[0] * signs[1] >= 0 or signs[2] * signs[3] >= 0:
            continue
        for r_apex, s_apex in (((a2[0], a1[1]), (b1[0], b2[1])), ((a1[0], a2[1]), (b2[0], b1[1]))):
            if orientation(a1, a2, r_apex) and orientation(b1, b2, s_apex):
                pairs.append((Polygon([a1, a2, r_apex]), Polygon([b1, b2, s_apex])))
    return pairs


def test_fuzzed_near_parallel_crossings_match_exact_oracle():
    pairs = near_parallel_triangles(np.random.default_rng(1), 80)
    assert relate_many(pairs) == [relate_exact(r, s) for r, s in pairs]

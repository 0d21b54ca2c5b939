"""Pairs whose boundaries never meet, against the exact oracle.

Without a boundary/boundary contact the kernel classifies one point per
ring (a ring with an edge outside the MBR overlap is exterior outright)
and assembles ``II``, ``IE`` and ``EI`` from the boundary cells alone,
with no representative point (``repro.topology.kernel``, steps 4–5).
Each case here is contact-free by construction, and its matrix must
equal the exact ``Fraction`` oracle's (``tests/oracles/relate_exact.py``)
both ways round, alone and as one batch.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.geometry import MultiPolygon, Polygon
from repro.topology import kernel
from repro.topology.kernel import relate_many
from tests.oracles.relate_exact import relate_exact
from tests.test_fuzz_soundness import small_polygons

#: A web-mercator offset: coordinates around 2·10⁷.
MERCATOR = (2.0037508342789244e7, -1.3e7)


def box(x0, y0, x1, y1):
    return Polygon.box(x0, y0, x1, y1)


def after(v):
    """The next float above ``v``."""
    return float(np.nextafter(v, np.inf))


def before(v):
    return float(np.nextafter(v, -np.inf))


SQUARE = box(0, 0, 10, 10)
DONUT = Polygon(box(0, 0, 20, 20).shell, [box(6, 6, 14, 14).shell])
#: An L: the square with its upper-right quarter cut away, so the notch
#: lies inside the L's MBR but outside the L.
ELL = Polygon([(0, 0), (10, 0), (10, 4), (4, 4), (4, 10), (0, 10)])
#: A quadrilateral in the L's notch with one edge above the L's MBR.
QUAD = Polygon([(6, 6), (8, 6), (12, 12), (11, 12)])
M = MERCATOR

CASES = {
    "ring inside": (box(2, 2, 8, 8), SQUARE),
    "ring outside, in the notch": (box(6, 6, 9, 9), ELL),
    "ring in a hole": (box(8, 8, 12, 12), DONUT),
    "hole inside the ring": (box(2, 2, 18, 18), DONUT),
    "ring around the donut": (box(-2, -2, 22, 22), DONUT),
    "parts inside and outside": (
        MultiPolygon([box(1, 1, 3, 3), box(6, 6, 9, 9)]), ELL
    ),
    "parts in the band and in the hole": (
        MultiPolygon([box(1, 1, 5, 5), box(8, 8, 12, 12)]), DONUT
    ),
    # Exactly one edge, (12, 12)-(11, 12), misses the MBR overlap
    # (6, 6, 10, 10), then (1, 1, 10, 10): its ring is exterior outright,
    # whatever the other part's ring is.
    "one clipped edge": (QUAD, ELL),
    "one clipped edge, other part inside": (MultiPolygon([QUAD, box(1, 1, 3, 3)]), ELL),
    "1e-9 inside": (box(1e-9, 1e-9, 10 - 1e-9, 10 - 1e-9), SQUARE),
    "1e-9 off the notch": (box(4 + 1e-9, 4 + 1e-9, 9, 9), ELL),
    "1e-9 inside the hole": (box(6 + 1e-9, 6 + 1e-9, 14 - 1e-9, 14 - 1e-9), DONUT),
    "one ulp inside, web mercator": (
        box(after(M[0]), after(M[1]), before(M[0] + 10), before(M[1] + 10)),
        box(M[0], M[1], M[0] + 10, M[1] + 10),
    ),
    "one ulp off the notch, web mercator": (
        box(after(M[0] + 4), after(M[1] + 4), M[0] + 9, M[1] + 9), ELL.translated(*M)
    ),
}


def pairs_both_ways():
    return [pair for r, s in CASES.values() for pair in ((r, s), (s, r))]


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_exact_oracle(name):
    r, s = CASES[name]
    for a, b in ((r, s), (s, r)):
        exact = relate_exact(a, b)
        assert not exact.matrix.BB, "the case must be contact-free"
        assert relate_many([(a, b)])[0] == exact


@pytest.mark.parametrize("budget", [1, kernel._BUDGET])
def test_cases_as_one_batch(budget, monkeypatch):
    pairs = pairs_both_ways()
    monkeypatch.setattr(kernel, "_BUDGET", budget)
    assert relate_many(pairs) == [relate_exact(a, b) for a, b in pairs]


def test_contact_free_pairs_read_no_representative_point(monkeypatch):
    seen = []
    real = kernel._witnesses

    def spy(a, a_idx, b, b_idx, pairs, n):
        seen.extend(pairs.tolist())
        return real(a, a_idx, b, b_idx, pairs, n)

    monkeypatch.setattr(kernel, "_witnesses", spy)
    # Two squares sharing an edge after the contact-free cases: only
    # that pair reaches the fallback, as its sub-edges leave II open.
    pairs = pairs_both_ways() + [(SQUARE, box(10, 0, 20, 10))]
    relate_many(pairs)
    assert set(seen) == {len(pairs) - 1}


@st.composite
def non_touching_streams(draw):
    """Random shapes, some the hole of a large square, some two-part
    multipolygons, in random pairs; the pairs whose boundaries meet are
    dropped (exact oracle). About half the kept pairs have overlapping
    MBRs, and about half of those are nested."""
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        s = draw(small_polygons())
        if draw(st.booleans()):
            s = Polygon(box(0, 0, 64, 64).shell, [s.shell])  # s is a hole
        r = draw(small_polygons())
        if draw(st.integers(0, 3)) == 0:
            r = MultiPolygon([r, draw(small_polygons()).translated(70, 0)])
        if draw(st.booleans()):
            r, s = s, r
        pairs.append((r, s))
    if draw(st.booleans()):
        pairs = [(r.translated(*MERCATOR), s.translated(*MERCATOR)) for r, s in pairs]
    exact = [relate_exact(r, s) for r, s in pairs]
    kept = [(pair, e) for pair, e in zip(pairs, exact) if not e.matrix.BB]
    assume(kept)
    return kept


@given(non_touching_streams())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_non_touching_streams_match_exact_oracle(stream):
    pairs = [pair for pair, _ in stream]
    assert relate_many(pairs) == [exact for _, exact in stream]

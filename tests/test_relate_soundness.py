"""relate_p filter soundness on a generated stream of thousands of pairs.

For all eight predicates, every YES the Fig. 6 trees give must hold and
every NO must fail under the scalar DE-9IM oracle
(``tests/oracles/relate.py``); a smaller sample is also checked against
the exact ``Fraction`` oracle (``tests/oracles/relate_exact.py``).

The input comes from :mod:`repro.datasets.synthetic`: parks, buildings
partly hosted in them, and two-part multipolygons (a park and a copy of
it beside it) on both sides, so that ``connected=False`` pairs are in
the stream. The verdicts
are computed for the whole stream (over 3,000 candidate pairs); tier-1
checks a seeded sample of them against the oracles, and
``REPRO_SOUNDNESS_FULL=1`` checks every pair (a CI step of its own).
"""

import os

import numpy as np
import pytest

from repro.datasets.synthetic import generate_blobs, generate_buildings
from repro.filters.relate_filters import CODES, RelateVerdict, relate_verdicts
from repro.geometry import Box, MultiPolygon
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import make_objects
from repro.raster import RasterGrid
from repro.topology.de9im import TopologicalRelation as T, relation_holds
from tests.oracles.relate import relate_details
from tests.oracles.relate_exact import relate_exact

FULL = os.environ.get("REPRO_SOUNDNESS_FULL") == "1"
#: Pairs checked against the scalar and the exact oracle.
SAMPLE, EXACT_SAMPLE = (None, 200) if FULL else (400, 12)


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(7)
    region = Box(0, 0, 1000, 1000)
    parks = generate_blobs(rng, 200, region, (4, 45), (8, 40), roughness=0.3)
    buildings = generate_buildings(
        rng, 3000, region, (1, 8), cluster_count=20, hosts=parks, hosted_fraction=0.5
    )
    # A park and a copy of it just beside it: one shape of two parts.
    multis = [MultiPolygon([p, p.translated(p.bbox.width + 2, 1)]) for p in parks[:60]]
    r_polygons = buildings + parks[:60] + multis[::2]
    s_polygons = parks + buildings[:60] + multis[1::2]
    grid = RasterGrid(region, order=9)
    pairs = sorted(
        plane_sweep_mbr_join([p.bbox for p in r_polygons], [p.bbox for p in s_polygons])
    )
    r_objects = make_objects(r_polygons, grid)
    s_objects = make_objects(s_polygons, grid)
    verdicts = {
        predicate: relate_verdicts(predicate, r_objects, s_objects, pairs) for predicate in T
    }
    return r_polygons, s_polygons, pairs, verdicts


def _disconnected(stream):
    r_polygons, s_polygons, pairs, _ = stream
    return [
        k for k, (i, j) in enumerate(pairs)
        if not (r_polygons[i].is_connected and s_polygons[j].is_connected)
    ]


def _checked(stream, size, seed):
    """Indices of the pairs to check: every one, or a seeded sample of
    ``size`` pairs, a quarter of them disconnected."""
    pairs = stream[2]
    if size is None:
        return range(len(pairs))
    rng = np.random.default_rng(seed)
    disconnected = _disconnected(stream)
    chosen = rng.choice(len(pairs), size=size - size // 4, replace=False).tolist()
    chosen += rng.choice(disconnected, size=size // 4, replace=False).tolist()
    return sorted(set(chosen))


def _assert_sound(matrix_of, stream, size, seed):
    r_polygons, s_polygons, pairs, verdicts = stream
    decided = 0
    for k in _checked(stream, size, seed):
        i, j = pairs[k]
        codes = {p: verdicts[p][k] for p in T}
        if all(code == CODES[RelateVerdict.UNKNOWN] for code in codes.values()):
            continue
        matrix = matrix_of(r_polygons[i], s_polygons[j])
        for predicate, code in codes.items():
            if code != CODES[RelateVerdict.UNKNOWN]:
                decided += 1
                holds = relation_holds(matrix, predicate)
                assert holds == (code == CODES[RelateVerdict.YES]), (i, j, predicate, code)
    assert decided


def test_the_stream_is_large_and_mixed(stream):
    r_polygons, s_polygons, pairs, verdicts = stream
    assert len(pairs) >= 3000
    disconnected = _disconnected(stream)
    assert len(disconnected) >= 500
    for predicate, codes in verdicts.items():
        counts = np.bincount(codes, minlength=3)
        assert counts[CODES[RelateVerdict.NO]], predicate
        # The rasters never prove a touch or an equality.
        if predicate not in (T.EQUALS, T.MEETS):
            assert counts[CODES[RelateVerdict.YES]], predicate
    # A disconnected pair decided past the MBR shortcuts.
    assert any(
        verdicts[T.DISJOINT][k] == CODES[RelateVerdict.YES]
        and not r_polygons[pairs[k][0]].bbox.disjoint(s_polygons[pairs[k][1]].bbox)
        for k in disconnected
    )


def test_every_decided_verdict_agrees_with_the_scalar_oracle(stream):
    _assert_sound(lambda r, s: relate_details(r, s).matrix, stream, SAMPLE, 1)


def test_decided_verdicts_agree_with_the_exact_oracle(stream):
    _assert_sound(lambda r, s: relate_exact(r, s).matrix, stream, EXACT_SAMPLE, 2)

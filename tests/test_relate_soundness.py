"""Filter soundness on a generated stream of thousands of pairs.

relate_p: for all eight predicates, every YES the Fig. 6 trees give must
hold and every NO must fail under the scalar DE-9IM oracle
(``tests/oracles/relate.py``). Find relation: for all four methods, every
definite verdict must be the oracle's most specific relation, and every
refine set must contain it (the paper's exactness claim for Fig. 5). A
smaller sample is also checked against the exact ``Fraction`` oracle
(``tests/oracles/relate_exact.py``); both checks read the same oracle
matrices.

The input comes from :mod:`repro.datasets.synthetic`: parks, buildings
partly hosted in them, and two-part multipolygons (a park and a copy of
it beside it) on both sides, so that ``connected=False`` pairs are in
the stream. The verdicts
are computed for the whole stream (over 3,000 candidate pairs); tier-1
checks a seeded sample of them against the oracles, and
``REPRO_SOUNDNESS_FULL=1`` checks every pair (a CI step of its own).
"""

import os
from typing import NamedTuple

import numpy as np
import pytest

from repro.datasets.synthetic import generate_blobs, generate_buildings
from repro.filters.relate_filters import CODES, RelateVerdict, relate_verdicts
from repro.geometry import Box, MultiPolygon
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import make_objects
from repro.join.pipeline import PIPELINES
from repro.raster import RasterGrid
from repro.topology.de9im import (
    TopologicalRelation as T,
    most_specific_relation,
    relation_holds,
)
from tests.oracles.relate import relate_details
from tests.oracles.relate_exact import relate_exact

FULL = os.environ.get("REPRO_SOUNDNESS_FULL") == "1"
#: Pairs checked against the scalar and the exact oracle.
SAMPLE, EXACT_SAMPLE = (None, 200) if FULL else (400, 12)


class Stream(NamedTuple):
    r_polygons: list
    s_polygons: list
    pairs: list
    #: relate_p verdict codes per predicate, one per pair.
    verdicts: dict
    #: Find-relation ``IFResult`` per method, one per pair.
    filtered: dict


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
    filtered = {
        method: [v for v, _ in pipeline.filter_pairs(r_objects, s_objects, pairs)]
        for method, pipeline in PIPELINES.items()
    }
    return Stream(r_polygons, s_polygons, pairs, verdicts, filtered)


def _disconnected(stream):
    return [
        k for k, (i, j) in enumerate(stream.pairs)
        if not (stream.r_polygons[i].is_connected and stream.s_polygons[j].is_connected)
    ]


def _checked(stream, size, seed):
    """Indices of the pairs to check: every one, or a seeded sample of
    ``size`` pairs, a quarter of them disconnected."""
    if size is None:
        return range(len(stream.pairs))
    rng = np.random.default_rng(seed)
    disconnected = _disconnected(stream)
    chosen = rng.choice(len(stream.pairs), size=size - size // 4, replace=False).tolist()
    chosen += rng.choice(disconnected, size=size // 4, replace=False).tolist()
    return sorted(set(chosen))


def _matrices(stream, matrix_of, size, seed):
    """The oracle's matrix of every checked pair, by pair index."""
    matrices = {}
    for k in _checked(stream, size, seed):
        i, j = stream.pairs[k]
        matrices[k] = matrix_of(stream.r_polygons[i], stream.s_polygons[j])
    return matrices


@pytest.fixture(scope="module")
def scalar_matrices(stream):
    return _matrices(stream, lambda r, s: relate_details(r, s).matrix, SAMPLE, 1)


@pytest.fixture(scope="module")
def exact_matrices(stream):
    return _matrices(stream, lambda r, s: relate_exact(r, s).matrix, EXACT_SAMPLE, 2)


def _assert_sound(stream, matrices):
    decided = 0
    for k, matrix in matrices.items():
        for predicate in T:
            code = stream.verdicts[predicate][k]
            if code != CODES[RelateVerdict.UNKNOWN]:
                decided += 1
                holds = relation_holds(matrix, predicate)
                assert holds == (code == CODES[RelateVerdict.YES]), (
                    stream.pairs[k], predicate, code,
                )
    assert decided


def _assert_find_sound(stream, matrices, method):
    assert matrices
    for k, matrix in matrices.items():
        verdict = stream.filtered[method][k]
        truth = most_specific_relation(matrix)
        if verdict.definite is not None:
            assert verdict.definite is truth, (stream.pairs[k], method, verdict)
        else:
            assert truth in verdict.refine_candidates, (stream.pairs[k], method, verdict)


def test_the_stream_is_large_and_mixed(stream):
    assert len(stream.pairs) >= 3000
    disconnected = _disconnected(stream)
    assert len(disconnected) >= 500
    for predicate, codes in stream.verdicts.items():
        counts = np.bincount(codes, minlength=3)
        assert counts[CODES[RelateVerdict.NO]], predicate
        # The rasters never prove a touch or an equality.
        if predicate not in (T.EQUALS, T.MEETS):
            assert counts[CODES[RelateVerdict.YES]], predicate
    # Each method past ST2 proves more relations than the one before it
    # and still leaves pairs to refine.
    definite = {
        method: sum(v.definite is not None for v in verdicts)
        for method, verdicts in stream.filtered.items()
    }
    assert 0 == definite["ST2"] < definite["OP2"] < definite["APRIL"] < definite["P+C"]
    assert definite["P+C"] < len(stream.pairs)
    # A disconnected pair decided past the MBR shortcuts.
    assert any(
        stream.verdicts[T.DISJOINT][k] == CODES[RelateVerdict.YES]
        and not stream.r_polygons[stream.pairs[k][0]].bbox.disjoint(
            stream.s_polygons[stream.pairs[k][1]].bbox
        )
        for k in disconnected
    )


def test_every_decided_verdict_agrees_with_the_scalar_oracle(stream, scalar_matrices):
    _assert_sound(stream, scalar_matrices)


def test_decided_verdicts_agree_with_the_exact_oracle(stream, exact_matrices):
    _assert_sound(stream, exact_matrices)


@pytest.mark.parametrize("method", list(PIPELINES))
def test_find_relation_agrees_with_the_scalar_oracle(stream, scalar_matrices, method):
    _assert_find_sound(stream, scalar_matrices, method)


@pytest.mark.parametrize("method", list(PIPELINES))
def test_find_relation_agrees_with_the_exact_oracle(stream, exact_matrices, method):
    _assert_find_sound(stream, exact_matrices, method)

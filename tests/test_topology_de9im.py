"""Unit tests for DE-9IM matrices, masks and mask matching."""

import pytest

from itertools import product

from repro.topology.de9im import (
    DE9IM,
    MASKS,
    MATCHING,
    SPECIFIC_TO_GENERAL,
    TopologicalRelation as T,
    most_specific_relation,
    relation_holds,
)
from tests.oracles import de9im as oracle
from tests.oracles.de9im import matrix_matches_any


class TestMatrix:
    def test_cell_accessors(self):
        m = DE9IM("TFTFFTTFT")
        assert m.II and not m.IB and m.IE
        assert not m.BI and not m.BB and m.BE
        assert m.EI and not m.EB and m.EE

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError):
            DE9IM("TTT")
        with pytest.raises(ValueError):
            DE9IM("TTTTTTTTX")

    def test_from_cells(self):
        m = DE9IM.from_cells(True, False, True, False, False, True, True, True, True)
        assert m.code == "TFTFFTTTT"

    def test_matches_exact(self):
        assert DE9IM("FFTFFTTTT").matches("FF*FF****")

    def test_matches_wildcard_only(self):
        assert DE9IM("TTTTTTTTT").matches("*********")

    def test_matches_rejects(self):
        assert not DE9IM("TFTFFTTTT").matches("FF*FF****")

    def test_matches_bad_mask(self):
        with pytest.raises(ValueError):
            DE9IM("TTTTTTTTT").matches("TT")

    def test_transposed(self):
        m = DE9IM("TFFTTFTFT")
        t = m.transposed()
        assert t.II == m.II and t.IB == m.BI and t.IE == m.EI
        assert t.BI == m.IB and t.BB == m.BB and t.BE == m.EB
        assert t.EI == m.IE and t.EB == m.BE and t.EE == m.EE

    def test_transpose_involution(self):
        m = DE9IM("TFFTTFTFT")
        assert m.transposed().transposed() == m

    def test_equality_hash(self):
        assert DE9IM("FFTFFTTTT") == DE9IM("FFTFFTTTT")
        assert hash(DE9IM("FFTFFTTTT")) == hash(DE9IM("FFTFFTTTT"))
        assert DE9IM("FFTFFTTTT") != DE9IM("TFTFFTTTT")


# Canonical matrices for areal pairs in each relation.
DISJOINT_M = DE9IM("FFTFFTTTT")
EQUALS_M = DE9IM("TFFFTFFFT")
INSIDE_M = DE9IM("TFFTFFTTT")  # r strictly interior to s
COVERED_BY_M = DE9IM("TFFTTFTTT")  # r inside s, boundaries touch
CONTAINS_M = INSIDE_M.transposed()
COVERS_M = COVERED_BY_M.transposed()
MEETS_M = DE9IM("FFTFTTTTT")  # touch without interior overlap
OVERLAP_M = DE9IM("TTTTTTTTT")


class TestMasks:
    @pytest.mark.parametrize(
        "matrix,relation",
        [
            (DISJOINT_M, T.DISJOINT),
            (EQUALS_M, T.EQUALS),
            (INSIDE_M, T.INSIDE),
            (COVERED_BY_M, T.COVERED_BY),
            (CONTAINS_M, T.CONTAINS),
            (COVERS_M, T.COVERS),
            (MEETS_M, T.MEETS),
            (OVERLAP_M, T.INTERSECTS),
        ],
    )
    def test_canonical_matrix_satisfies_relation(self, matrix, relation):
        assert relation_holds(matrix, relation)

    def test_venn_inside_implies_covered_by(self):
        assert relation_holds(INSIDE_M, T.COVERED_BY)

    def test_venn_contains_implies_covers(self):
        assert relation_holds(CONTAINS_M, T.COVERS)

    def test_venn_equals_implies_covers_and_covered_by(self):
        assert relation_holds(EQUALS_M, T.COVERS)
        assert relation_holds(EQUALS_M, T.COVERED_BY)

    def test_venn_meets_implies_intersects(self):
        assert relation_holds(MEETS_M, T.INTERSECTS)

    @pytest.mark.parametrize(
        "matrix",
        [EQUALS_M, INSIDE_M, COVERED_BY_M, CONTAINS_M, COVERS_M, MEETS_M, OVERLAP_M],
    )
    def test_non_disjoint_implies_intersects(self, matrix):
        assert relation_holds(matrix, T.INTERSECTS)
        assert not relation_holds(matrix, T.DISJOINT)

    def test_covered_by_not_inside(self):
        # Boundary touch must exclude the (amended) inside mask.
        assert not relation_holds(COVERED_BY_M, T.INSIDE)

    def test_covers_not_contains(self):
        assert not relation_holds(COVERS_M, T.CONTAINS)


class TestMostSpecific:
    @pytest.mark.parametrize(
        "matrix,expected",
        [
            (DISJOINT_M, T.DISJOINT),
            (EQUALS_M, T.EQUALS),
            (INSIDE_M, T.INSIDE),
            (COVERED_BY_M, T.COVERED_BY),
            (CONTAINS_M, T.CONTAINS),
            (COVERS_M, T.COVERS),
            (MEETS_M, T.MEETS),
            (OVERLAP_M, T.INTERSECTS),
        ],
    )
    def test_most_specific(self, matrix, expected):
        assert most_specific_relation(matrix) is expected

    def test_candidate_restriction(self):
        # With inside not among the candidates, the matrix must fall
        # through to the next matching candidate (covered by).
        got = most_specific_relation(INSIDE_M, candidates=[T.COVERED_BY, T.INTERSECTS])
        assert got is T.COVERED_BY

    def test_bad_candidates_raise(self):
        with pytest.raises(ValueError):
            most_specific_relation(DISJOINT_M, candidates=[T.EQUALS])

    def test_order_covers_all_relations(self):
        assert set(SPECIFIC_TO_GENERAL) == set(T)


class TestInverse:
    def test_symmetric_relations(self):
        for r in (T.DISJOINT, T.INTERSECTS, T.MEETS, T.EQUALS):
            assert r.inverse is r

    def test_asymmetric_relations(self):
        assert T.INSIDE.inverse is T.CONTAINS
        assert T.CONTAINS.inverse is T.INSIDE
        assert T.COVERED_BY.inverse is T.COVERS
        assert T.COVERS.inverse is T.COVERED_BY

    def test_transpose_matches_inverse(self):
        for matrix, relation in [
            (INSIDE_M, T.INSIDE),
            (COVERED_BY_M, T.COVERED_BY),
            (CONTAINS_M, T.CONTAINS),
            (COVERS_M, T.COVERS),
        ]:
            assert most_specific_relation(matrix.transposed()) is relation.inverse


class TestMatchesAny:
    def test_any(self):
        assert matrix_matches_any(MEETS_M, MASKS[T.MEETS])
        assert not matrix_matches_any(MEETS_M, MASKS[T.EQUALS])


ALL_CODES = ["".join(cells) for cells in product("TF", repeat=9)]


class TestLookupEqualsTheStringMatcher:
    def test_every_code_and_relation(self):
        assert len(ALL_CODES) == 512
        for code in ALL_CODES:
            matrix = DE9IM(code)
            for relation in T:
                assert relation_holds(matrix, relation) == oracle.relation_holds(matrix, relation), (
                    code, relation,
                )
            assert DE9IM.from_cells(*(c == "T" for c in code)) == matrix
        assert set(MATCHING) == set(T)
        assert all(MATCHING.values())

    def test_most_specific_on_every_code_and_candidate_set(self):
        candidate_sets = [None, *((r,) for r in T), tuple(SPECIFIC_TO_GENERAL[3:])]
        for code in ALL_CODES:
            matrix = DE9IM(code)
            for candidates in candidate_sets:
                try:
                    want = oracle.most_specific_relation(matrix, candidates)
                except ValueError:
                    with pytest.raises(ValueError, match="matches none"):
                        most_specific_relation(matrix, candidates)
                else:
                    assert most_specific_relation(matrix, candidates) is want, (code, candidates)

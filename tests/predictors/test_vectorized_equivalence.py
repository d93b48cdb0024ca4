"""Equivalence of the vectorized matching predictors and their loop oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.matching.matrix import MatchingMatrix
from repro.predictors.entropy import RowEntropyPredictor
from repro.predictors.structural import DominantsPredictor, MutualDominancePredictor
from tests.oracles.predictors import dominants_loop, mutual_dominance_loop, row_entropy_loop


@st.composite
def sparse_unit_matrices(draw):
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    values = draw(
        hnp.arrays(
            dtype=float,
            shape=shape,
            elements=st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    return values


class TestStructuralBitwise:
    @given(sparse_unit_matrices())
    @settings(max_examples=60, deadline=None)
    def test_dominants_bitwise(self, values):
        matrix = MatchingMatrix(values)
        predictor = DominantsPredictor()
        reference = dominants_loop(matrix)
        assert predictor(matrix) == reference

    @given(sparse_unit_matrices())
    @settings(max_examples=60, deadline=None)
    def test_mutual_dominance_bitwise(self, values):
        """The mask extracts dominants in the loop's row-major order, so
        the averaged values (and the mean) are bit-for-bit the loop's."""
        matrix = MatchingMatrix(values)
        predictor = MutualDominancePredictor()
        reference = mutual_dominance_loop(matrix)
        assert predictor(matrix) == reference


class TestRowEntropyTolerance:
    @given(sparse_unit_matrices())
    @settings(max_examples=60, deadline=None)
    def test_row_entropy_tight_tolerance(self, values):
        matrix = MatchingMatrix(values)
        predictor = RowEntropyPredictor()
        reference = row_entropy_loop(matrix)
        np.testing.assert_allclose(predictor(matrix), reference, rtol=1e-12, atol=1e-15)

    def test_zero_rows_and_single_column(self):
        predictor = RowEntropyPredictor()
        assert predictor(MatchingMatrix(np.zeros((3, 4)))) == 0.0
        assert predictor(MatchingMatrix(np.ones((3, 1)))) == 0.0

"""Equivalence of the stacked matching predictors and their per-matrix oracles.

``MatchingPredictor.batch`` scores an ``(n, r, c)`` stack in one pass;
every value must equal the per-matrix oracle in ``tests.oracles.predictors``
bit for bit.  ``TestTraps`` pins the three places where the tempting
stacked expression rounds differently from the per-matrix one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.matching.matrix import MatchingMatrix
from repro.predictors import MatrixStack, default_registry
from repro.predictors.entropy import RowEntropyPredictor
from repro.predictors.structural import DominantsPredictor, MutualDominancePredictor
from tests.oracles.predictors import (
    ORACLES,
    average_confidence,
    frobenius_norm,
    dominants_loop,
    mutual_dominance_loop,
    pca,
    row_entropy_loop,
)

REGISTRY = default_registry()

#: A coarse confidence grid: ties within rows and columns, and distinct
#: values that round to the same 3 decimals (0.4996, 0.5, 0.5004).
GRID = (0.0, 0.1, 0.25, 1 / 3, 0.4996, 0.5, 0.5004, 0.5006, 0.75, 0.999, 1.0)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


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


@st.composite
def stacks(draw):
    """1-6 matrices of one shape ``(r, c)``, r, c in 0..12, some all-zero."""
    n = draw(st.integers(1, 6))
    shape = (n, draw(st.integers(0, 12)), draw(st.integers(0, 12)))
    elements = draw(
        st.sampled_from(
            [
                st.sampled_from(GRID),
                st.sampled_from((0.0, 0.0, 0.0, 0.5, 1.0)),
                st.floats(0.0, 1.0, allow_nan=False),
            ]
        )
    )
    values = draw(hnp.arrays(dtype=float, shape=shape, elements=elements))
    for index in range(n):
        if draw(st.booleans()) and draw(st.booleans()):
            values[index] = 0.0
    return values


def assert_batch_is_oracle(name, values):
    got = REGISTRY[name].batch(MatrixStack(values))
    expected = [ORACLES[name](MatchingMatrix(matrix)) for matrix in values]
    assert bits(got) == bits(expected), (name, got, expected)


class TestStackedBitwise:
    @pytest.mark.parametrize("name", REGISTRY.names())
    @given(values=stacks())
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_oracle(self, name, values):
        assert_batch_is_oracle(name, values)

    @pytest.mark.parametrize("shape", [(2, 0, 0), (2, 0, 5), (2, 4, 0), (3, 0, 7), (0, 3, 3)])
    def test_zero_size_scores_zero(self, shape):
        values = np.zeros(shape)
        block = REGISTRY.batch(MatrixStack(values))
        assert block.shape == (len(values), len(REGISTRY))
        assert bits(block) == bits(np.zeros_like(block))
        for name in REGISTRY.names():
            assert_batch_is_oracle(name, values)

    @given(values=stacks())
    @settings(max_examples=30, deadline=None)
    def test_single_matrix_calls_equal_the_stack(self, values):
        """``predictor(matrix)`` and ``evaluate`` are one-matrix stacks."""
        block = REGISTRY.batch(MatrixStack(values))
        for index, matrix in enumerate(values):
            scores = REGISTRY.evaluate(MatchingMatrix(matrix))
            assert bits(list(scores.values())) == bits(block[index])
            for col, predictor in enumerate(REGISTRY):
                assert bits(predictor(MatchingMatrix(matrix))) == bits(block[index, col])

    def test_stack_must_be_three_dimensional(self):
        with pytest.raises(ValueError):
            MatrixStack(np.zeros((3, 3)))


class TestTraps:
    """Each test finds a witness on which the tempting stacked expression
    differs from the per-matrix oracle, then checks ``batch`` on it."""

    def test_pca_squares_the_chosen_value_as_a_python_float(self):
        # A 1x1 matrix's singular value is its entry; pca1 is pow(v, 2) / (v * v).
        candidates = np.random.default_rng(0).random(20000).tolist()
        witnesses = [v for v in candidates if v**2 != float(np.square(v))][:8]
        if not witnesses:
            pytest.skip("pow(v, 2) is correctly rounded on this platform")
        values = np.array(witnesses)[:, None, None]
        for component in (1, 2):
            expected = [pca(MatchingMatrix(matrix), component) for matrix in values]
            got = REGISTRY[f"pca{component}"].batch(MatrixStack(values))
            assert bits(got) == bits(expected)
        assert bits(np.ones(len(values))) != bits(REGISTRY["pca1"].batch(MatrixStack(values)))

    def test_frobenius_norm_is_one_dot_per_matrix(self):
        rng = np.random.default_rng(1)
        values = np.round(rng.random((64, 12, 12)), 2) * (rng.random((64, 12, 12)) < 0.5)
        flat = values.reshape(len(values), -1)
        reduced = np.sqrt((flat * flat).sum(axis=1)) / np.sqrt(flat.shape[1])
        expected = [frobenius_norm(MatchingMatrix(matrix)) for matrix in values]
        assert bits(reduced) != bits(expected), "no witness: the trap did not show"
        assert bits(REGISTRY["norm_fro"].batch(MatrixStack(values))) == bits(expected)

    def test_masked_means_reduce_equal_count_blocks(self):
        rng = np.random.default_rng(2)
        values = rng.random((64, 12, 12)) * (rng.random((64, 12, 12)) < 0.5)
        positive = values > 0
        padded = np.where(positive, values, 0.0).sum(axis=(1, 2)) / positive.sum(axis=(1, 2))
        expected = [average_confidence(MatchingMatrix(matrix)) for matrix in values]
        assert bits(padded) != bits(expected), "no witness: the trap did not show"
        for name in ("avg_conf", "conf_var", "mcd", "bpm", "entropy", "diversity"):
            assert_batch_is_oracle(name, values)


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

    @given(values=stacks())
    @settings(max_examples=40, deadline=None)
    def test_stacked_row_entropy_tight_tolerance(self, values):
        got = RowEntropyPredictor().batch(MatrixStack(values))
        reference = [row_entropy_loop(MatchingMatrix(matrix)) for matrix in values]
        np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-15)

    def test_zero_rows_and_single_column(self):
        predictor = RowEntropyPredictor()
        assert predictor(MatchingMatrix(np.zeros((3, 4)))) == 0.0
        assert predictor(MatchingMatrix(np.ones((3, 1)))) == 0.0

"""Tests for the matching matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.matching.matrix import MatchingMatrix
from tests.oracles.matching import top_1_per_row_loop


class TestConstruction:
    def test_zeros(self):
        matrix = MatchingMatrix.zeros((3, 4))
        assert matrix.shape == (3, 4)
        assert matrix.n_nonzero == 0
        assert matrix.density == 0.0

    def test_from_entries(self):
        matrix = MatchingMatrix.from_entries((2, 2), [(0, 1, 0.7), (1, 0, 0.3)])
        assert matrix[0, 1] == pytest.approx(0.7)
        assert matrix[1, 0] == pytest.approx(0.3)
        assert matrix.n_nonzero == 2

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MatchingMatrix(np.array([[1.5, 0.0]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MatchingMatrix(np.array([[-0.1, 0.0]]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            MatchingMatrix(np.zeros(4))

    def test_for_pair_shape_check(self, small_pair):
        matrix = MatchingMatrix.for_pair(small_pair)
        assert matrix.shape == small_pair.shape
        with pytest.raises(ValueError, match="does not agree"):
            MatchingMatrix(np.zeros((2, 2)), pair=small_pair)

    def test_values_are_read_only(self):
        matrix = MatchingMatrix.zeros((2, 2))
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 1.0


class TestAccessors:
    def test_nonzero_entries_is_sigma(self):
        matrix = MatchingMatrix.from_entries((3, 3), [(0, 0, 0.5), (2, 1, 1.0)])
        assert matrix.nonzero_entries() == {(0, 0), (2, 1)}

    def test_mean_confidence_over_nonzero_only(self):
        matrix = MatchingMatrix.from_entries((2, 2), [(0, 0, 0.4), (1, 1, 0.8)])
        assert matrix.mean_confidence() == pytest.approx(0.6)

    def test_mean_confidence_empty_match(self):
        assert MatchingMatrix.zeros((3, 3)).mean_confidence() == 0.0

    def test_density(self):
        matrix = MatchingMatrix.from_entries((2, 2), [(0, 0, 1.0)])
        assert matrix.density == pytest.approx(0.25)

    def test_iter_nonzero(self):
        matrix = MatchingMatrix.from_entries((2, 2), [(0, 1, 0.9)])
        assert list(matrix.iter_nonzero()) == [(0, 1, 0.9)]


class TestTransformations:
    def test_with_entry_is_immutable(self):
        original = MatchingMatrix.zeros((2, 2))
        updated = original.with_entry(0, 0, 0.5)
        assert original[0, 0] == 0.0
        assert updated[0, 0] == pytest.approx(0.5)

    def test_with_entry_validates_confidence(self):
        with pytest.raises(ValueError):
            MatchingMatrix.zeros((2, 2)).with_entry(0, 0, 1.5)

    def test_binarize(self):
        matrix = MatchingMatrix.from_entries((2, 2), [(0, 0, 0.4), (1, 1, 0.9)])
        binary = matrix.binarize(threshold=0.5)
        assert binary[0, 0] == 0.0
        assert binary[1, 1] == 1.0

    def test_apply_threshold_keeps_confidences(self):
        matrix = MatchingMatrix.from_entries((2, 2), [(0, 0, 0.4), (1, 1, 0.9)])
        filtered = matrix.apply_threshold(0.5)
        assert filtered[0, 0] == 0.0
        assert filtered[1, 1] == pytest.approx(0.9)

    def test_top_1_per_row(self):
        matrix = MatchingMatrix(np.array([[0.2, 0.8], [0.0, 0.0]]))
        top = matrix.top_1_per_row()
        assert top[0, 0] == 0.0
        assert top[0, 1] == pytest.approx(0.8)
        assert top.nonzero_entries() == {(0, 1)}

    def test_equality(self):
        a = MatchingMatrix.from_entries((2, 2), [(0, 0, 0.5)])
        b = MatchingMatrix.from_entries((2, 2), [(0, 0, 0.5)])
        c = MatchingMatrix.from_entries((2, 2), [(0, 0, 0.6)])
        assert a == b
        assert a != c


@st.composite
def unit_matrices(draw):
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    return draw(
        hnp.arrays(
            dtype=float,
            shape=shape,
            elements=st.floats(0.0, 1.0, allow_nan=False),
        )
    )


class TestProperties:
    @given(unit_matrices())
    @settings(max_examples=40, deadline=None)
    def test_density_in_unit_interval(self, values):
        matrix = MatchingMatrix(values)
        assert 0.0 <= matrix.density <= 1.0

    @given(unit_matrices())
    @settings(max_examples=40, deadline=None)
    def test_binarize_is_idempotent(self, values):
        matrix = MatchingMatrix(values)
        once = matrix.binarize()
        twice = once.binarize()
        assert once == twice

    @given(unit_matrices(), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_threshold_never_increases_nonzero(self, values, threshold):
        matrix = MatchingMatrix(values)
        assert matrix.apply_threshold(threshold).n_nonzero <= matrix.n_nonzero

    @given(unit_matrices())
    @settings(max_examples=40, deadline=None)
    def test_top_1_per_row_at_most_one_per_row(self, values):
        matrix = MatchingMatrix(values)
        top = matrix.top_1_per_row()
        per_row = (top.to_array() > 0).sum(axis=1)
        assert (per_row <= 1).all()

    @given(unit_matrices())
    @settings(max_examples=60, deadline=None)
    def test_top_1_per_row_bitwise_vs_loop(self, values):
        """Vectorized whole-matrix argmax == the retained row loop, bitwise."""
        matrix = MatchingMatrix(values)
        np.testing.assert_array_equal(
            matrix.top_1_per_row().values, top_1_per_row_loop(matrix).values
        )

    def test_top_1_per_row_tie_keeps_first_like_loop(self):
        values = np.array([[0.5, 0.5, 0.2], [0.0, 0.7, 0.7], [0.0, 0.0, 0.0]])
        matrix = MatchingMatrix(values)
        top = matrix.top_1_per_row()
        np.testing.assert_array_equal(top.values, top_1_per_row_loop(matrix).values)
        assert top.nonzero_entries() == {(0, 0), (1, 1)}

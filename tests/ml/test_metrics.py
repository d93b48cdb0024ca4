"""Tests for classification metrics, including the Eq. 7 multi-label accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.metrics import accuracy_score, jaccard_multilabel_score


class TestBinaryMetrics:
    def test_accuracy(self):
        assert accuracy_score([1, 0, 1, 1], [1, 0, 0, 1]) == pytest.approx(0.75)

    def test_accuracy_empty(self):
        assert accuracy_score([], []) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_score([1, 2], [1])

    def test_accuracy_string_labels(self):
        assert accuracy_score(["a", "b", "b"], ["a", "b", "a"]) == pytest.approx(2 / 3)


class TestMultiLabelJaccard:
    def test_exact_match(self):
        Y = np.array([[1, 0, 1, 0], [0, 1, 0, 0]])
        assert jaccard_multilabel_score(Y, Y) == pytest.approx(1.0)

    def test_partial_overlap(self):
        Y_true = np.array([[1, 1, 0, 0]])
        Y_pred = np.array([[1, 0, 1, 0]])
        assert jaccard_multilabel_score(Y_true, Y_pred) == pytest.approx(1 / 3)

    def test_both_empty_counts_as_one(self):
        Y_true = np.array([[0, 0, 0, 0]])
        Y_pred = np.array([[0, 0, 0, 0]])
        assert jaccard_multilabel_score(Y_true, Y_pred) == pytest.approx(1.0)

    def test_disjoint(self):
        Y_true = np.array([[1, 0, 0, 0]])
        Y_pred = np.array([[0, 1, 0, 0]])
        assert jaccard_multilabel_score(Y_true, Y_pred) == pytest.approx(0.0)

    def test_averages_over_samples(self):
        Y_true = np.array([[1, 1, 0, 0], [0, 0, 0, 0]])
        Y_pred = np.array([[1, 0, 0, 0], [0, 0, 0, 1]])
        assert jaccard_multilabel_score(Y_true, Y_pred) == pytest.approx((0.5 + 0.0) / 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            jaccard_multilabel_score(np.zeros((2, 4)), np.zeros((2, 3)))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            jaccard_multilabel_score([1, 0], [1, 0])

    def test_empty_matrix(self):
        assert jaccard_multilabel_score(np.zeros((0, 4)), np.zeros((0, 4))) == 0.0

    @given(
        hnp.arrays(dtype=int, shape=st.tuples(st.integers(1, 20), st.just(4)), elements=st.integers(0, 1)),
        hnp.arrays(dtype=int, shape=st.tuples(st.integers(1, 20), st.just(4)), elements=st.integers(0, 1)),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounded_and_symmetric(self, A, B):
        if A.shape != B.shape:
            B = A.copy()
        score = jaccard_multilabel_score(A, B)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(jaccard_multilabel_score(B, A))

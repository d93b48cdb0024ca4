"""Tests for train/test splitting and k-fold CV."""

import numpy as np
import pytest

from repro.ml import KFold, train_test_split


class TestTrainTestSplit:
    def test_sizes(self, classification_data):
        X, y = classification_data
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.25, random_state=0)
        assert len(X_test) == 20
        assert len(X_train) == 60
        assert len(y_train) == 60

    def test_no_overlap_and_full_coverage(self, classification_data):
        X, y = classification_data
        indices = np.arange(len(y))
        train_idx, test_idx, _, _ = train_test_split(indices, indices, test_size=0.3, random_state=1)
        assert set(train_idx) & set(test_idx) == set()
        assert set(train_idx) | set(test_idx) == set(indices)

    def test_invalid_test_size(self, classification_data):
        X, y = classification_data
        with pytest.raises(ValueError):
            train_test_split(X, y, test_size=1.5)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((5, 2)), np.zeros(4))

    def test_deterministic_with_seed(self, classification_data):
        X, y = classification_data
        a = train_test_split(X, y, random_state=5)[1]
        b = train_test_split(X, y, random_state=5)[1]
        np.testing.assert_array_equal(a, b)

    def test_no_shuffle_takes_leading_rows_as_test(self):
        indices = np.arange(8)
        train_idx, test_idx, _, _ = train_test_split(indices, indices, test_size=0.25, shuffle=False)
        np.testing.assert_array_equal(test_idx, [0, 1])
        np.testing.assert_array_equal(train_idx, np.arange(2, 8))

    def test_features_and_labels_stay_aligned(self, classification_data):
        X, y = classification_data
        X_train, X_test, y_train, y_test = train_test_split(X, y, random_state=2)
        rows = {tuple(row): label for row, label in zip(X, y)}
        for features, labels in ((X_train, y_train), (X_test, y_test)):
            assert [rows[tuple(row)] for row in features] == labels.tolist()

    def test_tiny_test_size_keeps_one_test_row(self):
        _, X_test, _, _ = train_test_split(np.arange(10), np.arange(10), test_size=0.01)
        assert len(X_test) == 1

    def test_test_size_leaving_no_training_rows(self):
        with pytest.raises(ValueError, match="no training samples"):
            train_test_split(np.arange(2), np.arange(2), test_size=0.9)


class TestKFold:
    def test_fold_partition(self):
        folds = KFold(n_splits=4, shuffle=False)
        X = list(range(10))
        test_indices = []
        for train_idx, test_idx in folds.split(X):
            assert set(train_idx) & set(test_idx) == set()
            test_indices.extend(test_idx.tolist())
        assert sorted(test_indices) == list(range(10))

    def test_number_of_folds(self):
        folds = list(KFold(n_splits=5).split(range(23)))
        assert len(folds) == 5
        sizes = [len(test) for _, test in folds]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(range(3)))

    def test_invalid_n_splits(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)

    def test_no_shuffle_folds_are_contiguous(self):
        folds = KFold(n_splits=3, shuffle=False).split(range(7))
        assert [test.tolist() for _, test in folds] == [[0, 1, 2], [3, 4], [5, 6]]

    def test_shuffle_is_deterministic_given_seed(self):
        a = [test.tolist() for _, test in KFold(n_splits=4, random_state=3).split(range(20))]
        b = [test.tolist() for _, test in KFold(n_splits=4, random_state=3).split(range(20))]
        assert a == b
        assert sorted(sum(a, [])) == list(range(20))

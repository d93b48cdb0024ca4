"""Tests for the standard scaler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml import StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(100, 4))
        scaled = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_not_divided_by_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10)])
        scaled = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(scaled))
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    def test_inverse_transform_roundtrip(self):
        rng = np.random.default_rng(1)
        X = rng.random((20, 3)) * 7
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-10)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_without_mean_only_scales(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        scaler = StandardScaler(with_mean=False).fit(X)
        np.testing.assert_array_equal(scaler.mean_, [0.0, 0.0])
        np.testing.assert_allclose(scaler.transform(X), X / X.std(axis=0))

    def test_without_std_only_centres(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        scaler = StandardScaler(with_std=False).fit(X)
        np.testing.assert_array_equal(scaler.scale_, [1.0, 1.0])
        np.testing.assert_allclose(scaler.transform(X), X - X.mean(axis=0))

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.array([[1.0], [np.inf]]))

    @given(
        hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(2, 20), st.integers(1, 5)),
            elements=st.floats(-1e3, 1e3),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, X):
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(X)), X, atol=1e-6
        )

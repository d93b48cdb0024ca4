"""The stacked one-vs-rest descent against the per-class oracle, bitwise.

``fit`` and ``fit_many`` run every class of every target in one descent;
``tests/oracles/ml.py::linear_fit_per_class`` descends each class alone.
Equality is byte equality, so a ``-0.0`` or one last-bit difference fails.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ml.base import clone
from repro.ml.linear import LinearSVC, LogisticRegression, _sigmoid
from tests.oracles.ml import linear_fit_per_class


def _bitwise(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _oracle_fit(template, X, y):
    model = clone(template)
    model._begin_fit(X, y)
    linear_fit_per_class(model, X, y)
    return model


def _assert_matches_oracle(template, X, targets):
    many = template.fit_many(X, targets)
    assert len(many) == len(targets)
    for y, stacked in zip(targets, many):
        oracle = _oracle_fit(template, X, y)
        alone = clone(template).fit(X, y)
        for model in (stacked, alone):
            assert _bitwise(model.classes_, oracle.classes_)
            for name in ("_weights", "_biases", "_feature_mean", "_feature_scale"):
                assert _bitwise(getattr(model, name), getattr(oracle, name)), name
            assert _bitwise(model.decision_function(X), oracle.decision_function(X))
            assert _bitwise(model.predict_proba(X), oracle.predict_proba(X))


@st.composite
def _problems(draw, min_samples=2, n_features=None):
    """A feature matrix and 1-4 label vectors of 1-3 classes each."""
    n = draw(st.integers(min_samples, 200))
    f = n_features if n_features is not None else draw(st.integers(1, 80))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f)) * 10.0 ** rng.uniform(-3, 3, size=f)
    constant = draw(st.lists(st.integers(0, f - 1), max_size=2))
    X[:, constant] = rng.normal()
    class_counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    targets = [rng.integers(0, classes, n) for classes in class_counts]
    return X, targets


_MODELS = st.one_of(
    st.builds(
        LogisticRegression,
        n_iterations=st.integers(1, 60),
        fit_intercept=st.booleans(),
    ),
    st.builds(LinearSVC, n_iterations=st.integers(1, 60)),
)


class TestStackedDescent:
    @settings(max_examples=60, deadline=None)
    @given(template=_MODELS, problem=_problems())
    def test_fit_many_and_fit_equal_oracle(self, template, problem):
        _assert_matches_oracle(template, *problem)

    @settings(max_examples=30, deadline=None)
    @given(template=_MODELS, problem=_problems(min_samples=9, n_features=1))
    def test_single_feature_equals_oracle(self, template, problem):
        # One feature: numpy sums an (m, 1) block pairwise over its m rows,
        # so the hinge gradient reduces each problem's own rows.
        _assert_matches_oracle(template, *problem)

    @pytest.mark.parametrize("template", [LogisticRegression(), LinearSVC()])
    def test_default_iterations_equal_oracle(self, template):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(44, 12))
        targets = [rng.integers(0, 2, 44), rng.integers(0, 3, 44), np.zeros(44, dtype=int)]
        _assert_matches_oracle(template, X, targets)

    def test_no_violation_keeps_pure_regularisation(self):
        # Separable with a wide margin from the first step on: the hinge
        # gradient is empty for every row, so each step only shrinks.
        X = np.array([[-10.0, 0.0], [-10.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        targets = [np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])]
        _assert_matches_oracle(LinearSVC(n_iterations=40), X, targets)

    def test_fit_many_returns_independent_clones(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        template = LogisticRegression(n_iterations=5)
        models = template.fit_many(X, [np.arange(20) % 2, np.arange(20) % 3])
        assert not template.is_fitted
        assert [model.classes_.size for model in models] == [2, 3]
        assert models[0]._feature_mean is not models[1]._feature_mean
        assert template.fit_many(X, []) == []


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-800, 800), min_size=1, max_size=64))
@example([0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300])
def test_sigmoid_equals_masked_scatter(values):
    z = np.array(values)
    expected = np.empty_like(z)
    positive = z >= 0
    expected[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    expected[~positive] = exp_z / (1.0 + exp_z)
    assert _bitwise(_sigmoid(z), expected)

"""The lockstep grower must be bitwise-equivalent to the scalar scan.

The scalar per-threshold loop is the seed implementation, kept as an
equivalence oracle in ``tests/oracles/ml.py`` together with the recursive
grower that fits one tree at a time.  Grown on them, every tree must have
the same nodes, thresholds, class counts, importances and probabilities
as the lockstep grower's, so fitted models -- and every experiment built
on them -- are reproducible bit for bit across the two code paths.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests.oracles.ml import RecursiveTree, best_split_scalar, grow_recursive


def _fit_scalar(monkeypatch, model, X, y):
    """Fit ``model`` tree by tree, every split found by the scalar scan."""
    with monkeypatch.context() as patch:
        patch.setattr(DecisionTreeClassifier, "_grow", staticmethod(grow_recursive))
        patch.setattr(RecursiveTree, "_best_split", best_split_scalar)
        return model.fit(X, y)


def _trees_identical(left: DecisionTreeClassifier, right: DecisionTreeClassifier) -> bool:
    left_arrays, right_arrays = left.tree_arrays(), right.tree_arrays()
    return all(
        left_arrays[name].dtype == right_arrays[name].dtype
        and np.array_equal(left_arrays[name], right_arrays[name])
        for name in left_arrays
    )


def _random_problem(rng, n_classes=2):
    n = int(rng.integers(6, 90))
    f = int(rng.integers(1, 25))
    X = rng.normal(size=(n, f))
    # Inject ties so the equal-value skip logic is exercised.
    X[:, : max(1, f // 3)] = np.round(X[:, : max(1, f // 3)] * 2) / 2
    y = rng.integers(0, n_classes, size=n)
    if np.unique(y).size < 2:
        y[0] = 0
        y[1] = 1
    return X, y


class TestSplitSearchEquivalence:
    @pytest.mark.parametrize("max_features", [None, "sqrt", 3])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_tree_bitwise_equivalence(self, max_features, n_classes, monkeypatch):
        rng = np.random.default_rng(hash((str(max_features), n_classes)) % 2**32)
        for trial in range(8):
            X, y = _random_problem(rng, n_classes)
            kwargs = dict(
                max_depth=6,
                min_samples_leaf=int(rng.integers(1, 3)),
                max_features=max_features,
                random_state=trial,
            )
            scalar = _fit_scalar(monkeypatch, DecisionTreeClassifier(**kwargs), X, y)
            vectorized = DecisionTreeClassifier(**kwargs).fit(X, y)
            assert _trees_identical(scalar, vectorized)
            X_test = rng.normal(size=(40, X.shape[1]))
            np.testing.assert_array_equal(
                scalar.predict_proba(X_test), vectorized.predict_proba(X_test)
            )
            np.testing.assert_array_equal(
                scalar.feature_importances_, vectorized.feature_importances_
            )

    def test_forest_bitwise_equivalence(self, monkeypatch):
        rng = np.random.default_rng(17)
        X, y = _random_problem(rng)
        scalar = _fit_scalar(
            monkeypatch,
            RandomForestClassifier(n_estimators=10, max_depth=5, random_state=3),
            X,
            y,
        )
        vectorized = RandomForestClassifier(n_estimators=10, max_depth=5, random_state=3).fit(X, y)
        for scalar_tree, lockstep_tree in zip(scalar.estimators_, vectorized.estimators_):
            assert _trees_identical(scalar_tree, lockstep_tree)
        X_test = rng.normal(size=(30, X.shape[1]))
        np.testing.assert_array_equal(
            scalar.predict_proba(X_test), vectorized.predict_proba(X_test)
        )
        np.testing.assert_array_equal(
            scalar.feature_importances_, vectorized.feature_importances_
        )

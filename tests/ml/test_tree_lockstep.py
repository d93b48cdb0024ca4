"""Lockstep tree growth equals growing each tree alone, bitwise.

``DecisionTreeClassifier`` and ``RandomForestClassifier`` grow every tree
of a ``fit`` or ``fit_many`` call together, one batched split search per
step.  The recursive grower in ``tests/oracles/ml.py`` grows one tree at a
time, one node at a time, with the per-node split search the lockstep
replaced.  Hypothesis varies the data (discrete, rounded and widely scaled
columns; one to three classes per target, single-class bootstraps
included), the number of targets and every growth parameter; the fitted
trees must match the oracle's in every node array, importance and
probability.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests.oracles.ml import RecursiveTree, grow_recursive

GROWTH = st.fixed_dictionaries(
    {
        "max_depth": st.sampled_from([None, 1, 6]),
        "max_features": st.sampled_from([None, "sqrt", 2]),
        "min_samples_leaf": st.integers(1, 4),
        "min_samples_split": st.integers(2, 6),
    }
)


@st.composite
def problems(draw):
    """``(X, targets, X_test)``: one feature matrix and 1-4 label vectors."""
    n = draw(st.integers(1, 80))
    f = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.integers(0, 3, size=f)
    X = rng.normal(size=(n, f))
    X[:, kind == 0] = rng.integers(0, 4, size=(n, int((kind == 0).sum())))
    X[:, kind == 1] = np.round(X[:, kind == 1], 1)
    X *= 10.0 ** rng.uniform(-3, 3, size=f)
    targets = [
        rng.integers(0, draw(st.integers(1, 3)), size=n) for _ in range(draw(st.integers(1, 4)))
    ]
    return X, targets, rng.normal(size=(12, f)) * X.std(axis=0) + X.mean(axis=0)


def _assert_same_tree(tree: DecisionTreeClassifier, oracle: RecursiveTree, X_test) -> None:
    expected = oracle.tree_arrays()
    actual = tree.tree_arrays()
    assert list(actual) == list(expected)
    for name, array in expected.items():
        assert actual[name].dtype == array.dtype, name
        np.testing.assert_array_equal(actual[name], array, err_msg=name)
    np.testing.assert_array_equal(tree.classes_, oracle.classes_)
    np.testing.assert_array_equal(tree.feature_importances_, oracle.feature_importances_)
    # The oracle routes rows down its linked nodes; the tree, level by level.
    np.testing.assert_array_equal(tree._predict_proba(X_test), oracle.predict_proba(X_test))


def _grown_by_oracle(fit):
    """Run ``fit()`` with every tree grown alone; return the result and the oracles."""
    oracles = []

    def grow(X, trees, samples, labels):
        oracles.extend(grow_recursive(X, trees, samples, labels))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module.DecisionTreeClassifier, "_grow", staticmethod(grow))
        return fit(), oracles


@settings(max_examples=100, deadline=None)
@given(problem=problems(), growth=GROWTH, seed=st.integers(0, 2**31 - 1))
def test_tree_fit_many_equals_recursive_oracle(problem, growth, seed):
    X, targets, X_test = problem
    template = DecisionTreeClassifier(random_state=seed, **growth)
    lockstep = template.fit_many(X, targets)
    for tree, y in zip(lockstep, targets):
        oracle = RecursiveTree(template).fit(X, y)
        _assert_same_tree(tree, oracle, X_test)
        single = DecisionTreeClassifier(random_state=seed, **growth).fit(X, y)
        np.testing.assert_array_equal(single.predict_proba(X_test), tree.predict_proba(X_test))


@settings(max_examples=100, deadline=None)
@given(
    problem=problems(),
    growth=GROWTH,
    n_estimators=st.integers(1, 8),
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_forest_fit_many_equals_recursive_oracle(problem, growth, n_estimators, bootstrap, seed):
    X, targets, X_test = problem
    template = RandomForestClassifier(
        n_estimators=n_estimators, bootstrap=bootstrap, random_state=seed, **growth
    )
    lockstep = template.fit_many(X, targets)
    expected, oracles = _grown_by_oracle(
        lambda: [
            RandomForestClassifier(
                n_estimators=n_estimators, bootstrap=bootstrap, random_state=seed, **growth
            ).fit(X, y)
            for y in targets
        ]
    )
    trees = [tree for forest in lockstep for tree in forest.estimators_]
    assert len(trees) == len(oracles)
    for tree, oracle in zip(trees, oracles):
        _assert_same_tree(tree, oracle, X_test)
    for forest, reference in zip(lockstep, expected):
        np.testing.assert_array_equal(forest.feature_importances_, reference.feature_importances_)
        np.testing.assert_array_equal(forest.predict_proba(X_test), reference.predict_proba(X_test))


@pytest.mark.parametrize("budget", [1, 64])
def test_search_chunking_does_not_change_trees(monkeypatch, budget):
    """Chunk boundaries of the batched search leave every tree unchanged."""
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(60, 12)), 1)
    targets = [rng.integers(0, 3, size=60), rng.integers(0, 2, size=60)]
    template = RandomForestClassifier(n_estimators=6, max_depth=None, random_state=2)
    reference = template.fit_many(X, targets)
    monkeypatch.setattr(tree_module, "SEARCH_BUDGET", budget)
    chunked = template.fit_many(X, targets)
    for forest, other in zip(reference, chunked):
        for tree, other_tree in zip(forest.estimators_, other.estimators_):
            for name, array in tree.tree_arrays().items():
                np.testing.assert_array_equal(other_tree.tree_arrays()[name], array)

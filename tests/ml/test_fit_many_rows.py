"""``fit_many(X, targets, rows=...)`` against clone-and-fit, bitwise.

``rows[i]`` picks the training rows of ``X`` for ``targets[i]``; the
result must equal ``[clone(t).fit(X[r], y) for r, y in zip(rows, targets)]``
for every estimator of the default classifier bank.  The linear models
descend every row subset in one loop, trees and forests grow every subset's
trees in one lockstep and the rest fit one model per subset; each is also
held against its reference loop in ``tests/oracles/ml.py``.  Equality is
byte equality of the fitted state (weights, node arrays, importances) and
of ``predict_proba``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.base import clone
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LinearSVC, LogisticRegression
from repro.ml.naive_bayes import GaussianNB
from repro.ml.tree import DecisionTreeClassifier
from tests.oracles.ml import RecursiveTree, forest_proba_per_tree, linear_fit_per_class

BANK = st.sampled_from(
    [
        LogisticRegression(n_iterations=25),
        LogisticRegression(n_iterations=15, fit_intercept=False),
        LinearSVC(n_iterations=25),
        DecisionTreeClassifier(max_depth=4, random_state=3),
        DecisionTreeClassifier(max_features="sqrt", min_samples_leaf=2, random_state=8),
        RandomForestClassifier(n_estimators=5, max_depth=4, random_state=1),
        RandomForestClassifier(n_estimators=3, bootstrap=False, max_features=None, random_state=2),
        GaussianNB(),
    ]
)


def _bytes(value) -> bytes:
    array = np.asarray(value)
    return str(array.dtype).encode() + str(array.shape).encode() + array.tobytes()


def _state(model) -> dict[str, bytes]:
    """Every fitted array of a bank model, as bytes."""
    state = {"classes_": _bytes(model.classes_), "n_features_in_": _bytes(model.n_features_in_)}
    for name in ("_weights", "_biases", "_feature_mean", "_feature_scale"):
        if hasattr(model, name):
            state[name] = _bytes(getattr(model, name))
    for name in ("_theta", "_sigma", "_priors", "feature_importances_"):
        if getattr(model, name, None) is not None:
            state[name] = _bytes(getattr(model, name))
    trees = model.estimators_ if isinstance(model, RandomForestClassifier) else [model]
    for index, tree in enumerate(trees):
        if isinstance(tree, DecisionTreeClassifier):
            for name, array in tree.tree_arrays().items():
                state[f"tree{index}.{name}"] = _bytes(array)
            state[f"tree{index}.importances"] = _bytes(tree.feature_importances_)
    return state


def _assert_same(model, reference, X_test) -> None:
    assert type(model) is type(reference)
    assert _state(model) == _state(reference)
    assert _bytes(model.predict_proba(X_test)) == _bytes(reference.predict_proba(X_test))


def _assert_matches_oracle(model, X_rows, y, X_test) -> None:
    """The fitted model against its reference loop on its own rows."""
    if isinstance(model, (LogisticRegression, LinearSVC)):
        oracle = clone(model)
        oracle._begin_fit(X_rows, y)
        linear_fit_per_class(oracle, X_rows, y)
        assert _state(model) == _state(oracle)
    elif isinstance(model, DecisionTreeClassifier):
        recursive = RecursiveTree(model).fit(X_rows, y)
        for name, array in recursive.tree_arrays().items():
            assert _bytes(model.tree_arrays()[name]) == _bytes(array), name
        assert _bytes(model.feature_importances_) == _bytes(recursive.feature_importances_)
    elif isinstance(model, RandomForestClassifier):
        expected = forest_proba_per_tree(model, X_test)
        assert _bytes(model._predict_proba(X_test)) == _bytes(expected)


@st.composite
def problems(draw):
    """``(X, targets, rows, X_test)`` with 1-6 row subsets of one matrix.

    Subsets come from a few shapes: the folds of a shuffled split (equal
    or unequal sizes), arbitrary draws (repeats allowed) and reuse of an
    earlier subset by a later target.  Targets have one to three classes,
    so some subsets are single-class.
    """
    n = draw(st.integers(1, 40))
    f = draw(st.sampled_from([1, 1, 2, 5, 13]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, f)) * 10.0 ** rng.uniform(-2, 2, size=f)
    rounded = rng.random(f) < 0.3
    X[:, rounded] = np.round(X[:, rounded])
    n_targets = draw(st.integers(1, 6))
    if draw(st.booleans()) and n >= 2:
        # Training folds of a k-fold split, each used by several targets.
        k = draw(st.integers(2, min(n, 4)))
        order = rng.permutation(n)
        folds = [np.setdiff1d(order, part) for part in np.array_split(order, k)]
        folds = [fold for fold in folds if fold.size] or [order]
        rows = [folds[i % len(folds)] for i in range(n_targets)]
    else:
        rows = []
        for _ in range(n_targets):
            if rows and draw(st.booleans()):
                rows.append(rows[draw(st.integers(0, len(rows) - 1))])
            else:
                size = draw(st.integers(1, n))
                rows.append(rng.choice(n, size=size, replace=draw(st.booleans())))
    targets = [rng.integers(0, draw(st.integers(1, 3)), size=subset.size) for subset in rows]
    X_test = rng.normal(size=(9, f)) * X.std(axis=0) + X.mean(axis=0)
    return X, targets, rows, X_test


@settings(max_examples=120, deadline=None)
@given(template=BANK, problem=problems())
def test_fit_many_rows_equals_clone_and_fit(template, problem):
    X, targets, rows, X_test = problem
    many = template.fit_many(X, targets, rows=rows)
    assert len(many) == len(targets)
    assert not template.is_fitted
    for model, subset, y in zip(many, rows, targets):
        _assert_same(model, clone(template).fit(X[subset], y), X_test)
        _assert_matches_oracle(model, X[subset], y, X_test)


@pytest.mark.parametrize(
    "template",
    [
        LogisticRegression(n_iterations=200),
        LinearSVC(n_iterations=200),
        DecisionTreeClassifier(max_depth=5, random_state=0),
        RandomForestClassifier(n_estimators=30, max_depth=6, random_state=0),
        GaussianNB(),
    ],
    ids=lambda template: type(template).__name__,
)
def test_fit_many_rows_on_cv_folds(template):
    """The selection's shape: every label of every training fold in one call."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(33, 17))
    Y = rng.integers(0, 2, size=(33, 4))
    order = rng.permutation(33)
    folds = [np.setdiff1d(order, part) for part in np.array_split(order, 3)]
    rows = [fold for fold in folds for _ in range(4)]
    targets = [Y[fold, label] for fold in folds for label in range(4)]
    for model, subset, y in zip(template.fit_many(X, targets, rows=rows), rows, targets):
        _assert_same(model, clone(template).fit(X[subset], y), X)


def test_fit_many_rows_accepts_masks_and_lists():
    X = np.random.default_rng(2).normal(size=(8, 3))
    y = np.array([0, 1, 0, 1])
    mask = np.zeros(8, dtype=bool)
    mask[[1, 3, 4, 6]] = True
    template = LogisticRegression(n_iterations=10)
    by_mask, by_list, by_negative = template.fit_many(
        X, [y, y, y], rows=[mask, [1, 3, 4, 6], [-7, -5, -4, -2]]
    )
    expected = clone(template).fit(X[[1, 3, 4, 6]], y)
    for model in (by_mask, by_list, by_negative):
        _assert_same(model, expected, X)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([np.arange(4)], "2 targets"),
        ([np.arange(4), np.arange(3)], "rows but y has"),
        ([np.arange(4), np.zeros((2, 2), dtype=int)], "1-D"),
    ],
)
def test_fit_many_rows_rejects_mismatches(rows, message):
    X = np.zeros((6, 2))
    with pytest.raises(ValueError, match=message):
        GaussianNB().fit_many(X, [np.arange(4) % 2, np.arange(4) % 2], rows=rows)


def test_fit_many_rows_rejects_an_empty_subset():
    with pytest.raises(ValueError, match="empty"):
        GaussianNB().fit_many(np.zeros((6, 2)), [np.zeros(0, dtype=int)], rows=[[]])


def test_fit_many_rows_out_of_range():
    with pytest.raises(IndexError):
        GaussianNB().fit_many(np.zeros((3, 2)), [np.array([0, 1])], rows=[np.array([0, 3])])


ZERO_COLUMN_BANK = [
    RandomForestClassifier(n_estimators=4, max_depth=3, random_state=0),
    RandomForestClassifier(n_estimators=2, max_features=None, random_state=1),
    LogisticRegression(n_iterations=20),
    LinearSVC(n_iterations=20),
    DecisionTreeClassifier(max_depth=3, random_state=0),
    DecisionTreeClassifier(max_features=None, random_state=0),
    GaussianNB(),
]


@pytest.mark.parametrize("template", ZERO_COLUMN_BANK, ids=lambda t: type(t).__name__)
def test_zero_column_fit_is_constant(template):
    """A matrix without columns fits a constant model: trees grow a root leaf."""
    X = np.zeros((6, 0))
    y = np.array([0, 1, 1, 0, 1, 1])
    fitted = clone(template).fit(X, y)
    many = template.fit_many(X, [y, y[::-1]])
    with_rows = template.fit_many(X, [y[:4], y[2:]], rows=[np.arange(4), np.arange(2, 6)])
    for model in [fitted, *many, *with_rows]:
        probabilities = model.predict_proba(np.zeros((3, 0)))
        assert probabilities.shape == (3, 2)
        assert (probabilities == probabilities[0]).all()
        trees = model.estimators_ if isinstance(model, RandomForestClassifier) else [model]
        for tree in trees:
            if isinstance(tree, DecisionTreeClassifier):
                assert tree.tree_arrays()["feature"].tolist() == [-1]
                assert tree.feature_importances_.shape == (0,)
    _assert_same(many[0], fitted, np.zeros((3, 0)))
    for model, subset, y_rows in zip(with_rows, [np.arange(4), np.arange(2, 6)], [y[:4], y[2:]]):
        _assert_same(model, clone(template).fit(X[subset], y_rows), np.zeros((3, 0)))


def test_zero_column_recursive_oracle_grows_root_leaf():
    X = np.zeros((5, 0))
    y = np.array([0, 1, 0, 1, 1])
    for params in (DecisionTreeClassifier(max_features="sqrt"), DecisionTreeClassifier()):
        oracle = RecursiveTree(params).fit(X, y)
        assert oracle.tree_arrays()["feature"].tolist() == [-1]
        tree = clone(params).fit(X, y)
        for name, array in oracle.tree_arrays().items():
            assert _bytes(tree.tree_arrays()[name]) == _bytes(array)

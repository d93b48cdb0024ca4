"""Batched classifier selection against the per-label oracle, bitwise.

``MExICharacterizer._select_classifiers`` cross-validates the bank for
every label at once (one ``fit_many`` per candidate, over every training
fold through ``rows=``); ``tests/oracles/ml.py::select_classifier_per_label``
is the per-label, per-fold loop it replaced, run here on the reference
loops (per-class linear descent, recursive tree growth).  Names, CV scores
and predictions must be identical.
"""

import numpy as np
import pytest

from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LinearSVC, LogisticRegression
from repro.ml.model_selection import KFold
from repro.ml.naive_bayes import GaussianNB
from repro.ml.tree import DecisionTreeClassifier
from tests.oracles.ml import grow_recursive, linear_fit_per_class, select_classifier_per_label


def _nonlinear_bank():
    return [
        DecisionTreeClassifier(max_depth=2, random_state=4),
        # Non-default growth: every fold's forests grow in one lockstep.
        RandomForestClassifier(
            n_estimators=4, max_depth=3, max_features=2, min_samples_leaf=2, random_state=5
        ),
        GaussianNB(),
    ]


def _install_reference_loops(patch) -> None:
    """Fit every linear model per class and every tree alone, by recursion."""
    patch.setattr(LogisticRegression, "_fit", linear_fit_per_class)
    patch.setattr(LinearSVC, "_fit", linear_fit_per_class)
    patch.setattr(DecisionTreeClassifier, "_grow", staticmethod(grow_recursive))


def _one_class_fold_label(n_samples: int, random_state: int) -> np.ndarray:
    """Positive on two rows of the first test fold: that training fold is all 0."""
    train_index, test_index = next(
        KFold(n_splits=3, shuffle=True, random_state=random_state).split(np.zeros(n_samples))
    )
    y = np.zeros(n_samples, dtype=int)
    y[test_index[:2]] = 1
    assert np.unique(y[train_index]).size == 1
    return y


def _label_matrix(n_samples: int, random_state: int, rng) -> np.ndarray:
    if n_samples < 6:
        # Every column has both classes, so each is selected by CV.
        alternating = np.arange(n_samples) % 2
        return np.column_stack([alternating, 1 - alternating, alternating])
    return np.column_stack(
        [
            rng.integers(0, 2, n_samples),
            _one_class_fold_label(n_samples, random_state),
            (np.arange(n_samples) % 3 == 0).astype(int),
            rng.integers(0, 2, n_samples),
            rng.integers(0, 2, n_samples),
        ]
    )


def _assert_same_selection(selected, expected, X):
    assert len(selected) == len(expected)
    for (model, name, score), (oracle, oracle_name, oracle_score) in zip(selected, expected):
        assert name == oracle_name
        assert score == oracle_score
        assert np.array_equal(model.classes_, oracle.classes_)
        assert model.predict_proba(X).tobytes() == oracle.predict_proba(X).tobytes()
        assert np.array_equal(model.predict(X), oracle.predict(X))


@pytest.mark.parametrize("bank", [None, _nonlinear_bank], ids=["default", "nonlinear"])
@pytest.mark.parametrize("folds", [3, 1])
@pytest.mark.parametrize("n_samples, seed", [(20, 1), (20, 2), (20, 3), (21, 4), (2, 5)])
def test_select_classifiers_equals_per_label_oracle(bank, folds, n_samples, seed):
    # 21 rows split into three equal training folds; 20 into unequal ones;
    # 2 rows leave one sample per training fold.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, 6))
    Y = _label_matrix(n_samples, random_state=2, rng=rng)
    model = MExICharacterizer(classifier_bank=bank, selection_folds=folds, random_state=2)
    selected = model._select_classifiers(X, Y)
    with pytest.MonkeyPatch.context() as patch:
        _install_reference_loops(patch)
        expected = [
            select_classifier_per_label(model, X, Y[:, label]) for label in range(Y.shape[1])
        ]
    _assert_same_selection(selected, expected, X)


@pytest.mark.parametrize("bank", [None, _nonlinear_bank], ids=["default", "nonlinear"])
def test_fit_equals_per_label_oracle(bank, small_cohort, cohort_labels, monkeypatch):
    labels, _ = cohort_labels
    matchers = small_cohort[:12]
    Y = labels[:12].copy()
    Y[:, 0] = 1  # constant overall
    Y[:, 1] = _one_class_fold_label(12, random_state=0)

    def build():
        return MExICharacterizer(
            variant=MExIVariant.EMPTY,
            feature_sets=("lrsm", "beh"),
            classifier_bank=bank,
            random_state=0,
        )

    model = build().fit(matchers, Y)
    labels_out, scores = model.characterize(small_cohort)

    # The oracle side: the per-label loop over the reference fits.
    _install_reference_loops(monkeypatch)
    oracle = build()
    oracle._select_classifiers = lambda X, Y: [
        select_classifier_per_label(oracle, X, Y[:, label]) for label in range(Y.shape[1])
    ]
    oracle.fit(matchers, Y)

    assert model.selected_classifiers() == oracle.selected_classifiers()
    assert list(model.selected_classifiers().values())[0] == "constant"
    assert [m.cv_score for m in model._label_models] == [m.cv_score for m in oracle._label_models]
    oracle_labels, oracle_scores = oracle.characterize(small_cohort)
    assert np.array_equal(labels_out, oracle_labels)
    assert scores.tobytes() == oracle_scores.tobytes()

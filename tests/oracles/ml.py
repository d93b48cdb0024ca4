"""Reference loops for ``repro.ml``: the tree split scan, the per-class
linear descent and the per-label classifier selection.

:func:`best_split_scalar` has the signature of
``DecisionTreeClassifier._best_split`` and :func:`linear_fit_per_class`
that of ``LogisticRegression._fit`` / ``LinearSVC._fit``, so a whole tree,
forest, linear model or classifier bank can be fitted on them::

    monkeypatch.setattr(DecisionTreeClassifier, "_best_split", best_split_scalar)
    monkeypatch.setattr(LogisticRegression, "_fit", linear_fit_per_class)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import BaseClassifier, clone
from repro.ml.linear import LinearSVC, LogisticRegression, _sigmoid
from repro.ml.metrics import accuracy_score
from repro.ml.model_selection import KFold
from repro.ml.tree import DecisionTreeClassifier, _gini


def best_split_scalar(
    tree: DecisionTreeClassifier, X: np.ndarray, y_encoded: np.ndarray
) -> Optional[tuple[int, float, np.ndarray]]:
    """Scan every threshold of every candidate feature, one at a time."""
    n_samples, n_features = X.shape
    parent_counts = tree._class_counts(y_encoded)
    parent_impurity = _gini(parent_counts)
    if parent_impurity == 0.0:
        return None

    candidate_features = tree._rng.choice(
        n_features, size=tree._n_split_features(n_features), replace=False
    )
    best: Optional[tuple[int, float, np.ndarray]] = None
    best_score = parent_impurity - 1e-12

    for feature in candidate_features:
        order = np.argsort(X[:, feature], kind="stable")
        values = X[order, feature]
        labels = y_encoded[order]
        left_counts = np.zeros_like(parent_counts)
        right_counts = parent_counts.copy()
        for split_index in range(1, n_samples):
            label = labels[split_index - 1]
            left_counts[label] += 1
            right_counts[label] -= 1
            if values[split_index] == values[split_index - 1]:
                continue
            n_left = split_index
            n_right = n_samples - split_index
            if n_left < tree.min_samples_leaf or n_right < tree.min_samples_leaf:
                continue
            weighted = (n_left * _gini(left_counts) + n_right * _gini(right_counts)) / n_samples
            if weighted < best_score:
                best_score = weighted
                threshold = (values[split_index] + values[split_index - 1]) / 2.0
                best = (int(feature), float(threshold), left_counts.copy())
    return best


def _logistic_binary(
    model: LogisticRegression, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, float]:
    n_samples, n_features = X.shape
    weights = np.zeros(n_features)
    bias = 0.0
    for _ in range(model.n_iterations):
        logits = X @ weights + bias
        probabilities = _sigmoid(logits)
        error = probabilities - y
        gradient_w = X.T @ error / n_samples + model.regularization * weights
        gradient_b = error.mean() if model.fit_intercept else 0.0
        weights -= model.learning_rate * gradient_w
        bias -= model.learning_rate * gradient_b
    return weights, bias


def _svc_binary(model: LinearSVC, X: np.ndarray, y_signed: np.ndarray) -> tuple[np.ndarray, float]:
    n_samples, n_features = X.shape
    weights = np.zeros(n_features)
    bias = 0.0
    for _ in range(model.n_iterations):
        margins = y_signed * (X @ weights + bias)
        violating = margins < 1.0
        if np.any(violating):
            gradient_w = (
                -(y_signed[violating, None] * X[violating]).mean(axis=0)
                + model.regularization * weights
            )
            gradient_b = -y_signed[violating].mean()
        else:
            gradient_w = model.regularization * weights
            gradient_b = 0.0
        weights -= model.learning_rate * gradient_w
        bias -= model.learning_rate * gradient_b
    return weights, bias


def linear_fit_per_class(model, X: np.ndarray, y: np.ndarray) -> None:
    """``_fit`` of a linear one-vs-rest model, one class descended at a time."""
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    X_std = (X - mean) / scale
    rows = []
    if model.classes_.size > 1:
        for cls in model.classes_:
            if isinstance(model, LogisticRegression):
                rows.append(_logistic_binary(model, X_std, (y == cls).astype(float)))
            else:
                rows.append(_svc_binary(model, X_std, np.where(y == cls, 1.0, -1.0)))
    model._feature_mean = mean
    model._feature_scale = scale
    model._weights = np.array([weights for weights, _ in rows]).reshape(len(rows), X.shape[1])
    model._biases = np.array([bias for _, bias in rows], dtype=float)


def select_classifier_per_label(
    characterizer, X: np.ndarray, y: np.ndarray
) -> tuple[BaseClassifier, str, float]:
    """Cross-validate a characterizer's bank for one label; refit the best.

    The per-label loop ``MExICharacterizer._select_classifiers`` replaced:
    it calls the bank once per label and fits one clone per fold.
    """
    best_score = -1.0
    best_classifier: Optional[BaseClassifier] = None
    n_samples = X.shape[0]
    n_folds = min(characterizer.selection_folds, n_samples)
    for candidate in characterizer._classifier_bank():
        if n_folds >= 2 and np.unique(y).size > 1:
            folds = KFold(n_splits=n_folds, shuffle=True, random_state=characterizer.random_state)
            scores = []
            for train_index, test_index in folds.split(X):
                if np.unique(y[train_index]).size < 2:
                    scores.append(float(np.mean(y[test_index] == y[train_index][0])))
                    continue
                model = clone(candidate)
                model.fit(X[train_index], y[train_index])
                scores.append(accuracy_score(y[test_index], model.predict(X[test_index])))
            score = float(np.mean(scores))
        else:
            model = clone(candidate)
            model.fit(X, y)
            score = accuracy_score(y, model.predict(X))
        if score > best_score:
            best_score = score
            best_classifier = candidate
    assert best_classifier is not None
    final = clone(best_classifier)
    final.fit(X, y)
    return final, type(best_classifier).__name__, best_score

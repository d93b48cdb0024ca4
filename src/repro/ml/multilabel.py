"""Multi-label wrappers: binary relevance and classifier chains.

MExI casts expert characterization as a 4-label problem.  Following
Read et al. (the paper's Section III-B reference), the multi-label problem
is transformed into one binary problem per label (binary relevance); the
classifier-chain variant feeds earlier label predictions as extra features
to later labels.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ml.base import BaseClassifier, clone


def _validate_multilabel(X: Sequence, Y: Sequence) -> tuple[np.ndarray, np.ndarray]:
    features = np.asarray(X, dtype=float)
    labels = np.asarray(Y)
    if features.ndim != 2:
        raise ValueError("X must be 2-D")
    if labels.ndim != 2:
        raise ValueError("Y must be a 2-D (n_samples, n_labels) matrix")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("X and Y must have the same number of samples")
    return features, labels


class BinaryRelevance:
    """One independent binary classifier per label."""

    def __init__(self, base_estimator: BaseClassifier) -> None:
        self.base_estimator = base_estimator
        self.estimators_: list[BaseClassifier] = []
        self.n_labels_: int = 0

    def fit(self, X: Sequence, Y: Sequence) -> "BinaryRelevance":
        features, labels = _validate_multilabel(X, Y)
        self.n_labels_ = labels.shape[1]
        self.estimators_ = self.base_estimator.fit_many(features, list(labels.T))
        return self

    def predict(self, X: Sequence) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("BinaryRelevance has not been fitted yet")
        features = np.asarray(X, dtype=float)
        columns = [estimator.predict(features) for estimator in self.estimators_]
        return np.column_stack(columns)

    def predict_proba(self, X: Sequence) -> np.ndarray:
        """Probability of the positive class for each label."""
        if not self.estimators_:
            raise RuntimeError("BinaryRelevance has not been fitted yet")
        features = np.asarray(X, dtype=float)
        probabilities = np.zeros((features.shape[0], self.n_labels_))
        for label_index, estimator in enumerate(self.estimators_):
            proba = estimator.predict_proba(features)
            assert estimator.classes_ is not None
            positive_columns = np.where(estimator.classes_ == 1)[0]
            if positive_columns.size:
                probabilities[:, label_index] = proba[:, positive_columns[0]]
            else:
                # The label never appeared positive in training.
                probabilities[:, label_index] = 0.0
        return probabilities


class ClassifierChain:
    """Binary classifiers linked in a chain: each sees previous label predictions."""

    def __init__(
        self,
        base_estimator: BaseClassifier,
        order: Optional[Sequence[int]] = None,
    ) -> None:
        self.base_estimator = base_estimator
        self.order = list(order) if order is not None else None
        self.estimators_: list[BaseClassifier] = []
        self.order_: list[int] = []
        self.n_labels_: int = 0

    def fit(self, X: Sequence, Y: Sequence) -> "ClassifierChain":
        features, labels = _validate_multilabel(X, Y)
        self.n_labels_ = labels.shape[1]
        self.order_ = self.order if self.order is not None else list(range(self.n_labels_))
        if sorted(self.order_) != list(range(self.n_labels_)):
            raise ValueError("order must be a permutation of the label indices")
        self.estimators_ = []
        augmented = features
        for label_index in self.order_:
            estimator = clone(self.base_estimator)
            estimator.fit(augmented, labels[:, label_index])
            self.estimators_.append(estimator)
            augmented = np.column_stack([augmented, labels[:, label_index].astype(float)])
        return self

    def predict(self, X: Sequence) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("ClassifierChain has not been fitted yet")
        features = np.asarray(X, dtype=float)
        predictions = np.zeros((features.shape[0], self.n_labels_), dtype=int)
        augmented = features
        for estimator, label_index in zip(self.estimators_, self.order_):
            label_prediction = estimator.predict(augmented).astype(int)
            predictions[:, label_index] = label_prediction
            augmented = np.column_stack([augmented, label_prediction.astype(float)])
        return predictions

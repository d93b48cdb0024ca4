"""Estimator base classes and cloning (mirrors scikit-learn's conventions)."""

from __future__ import annotations

import copy
import inspect
from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence

import numpy as np


def _as_2d_float(X: Any) -> np.ndarray:
    """Validate a feature matrix: 2-D, finite, float."""
    array = np.asarray(X, dtype=float)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError("feature matrix contains NaN or infinite values")
    return array


def _as_1d(y: Any) -> np.ndarray:
    """Validate a label vector: 1-D."""
    array = np.asarray(y)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-D label vector, got shape {array.shape}")
    return array


class BaseEstimator:
    """Base estimator with parameter introspection (``get_params`` / ``set_params``)."""

    def get_params(self) -> dict[str, Any]:
        """Constructor parameters of the estimator, by introspection."""
        signature = inspect.signature(type(self).__init__)
        params = {}
        for name, parameter in signature.parameters.items():
            if name == "self" or parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            params[name] = getattr(self, name, parameter.default)
        return params

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set constructor parameters in place and return self."""
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"{type(self).__name__} has no parameter {name!r}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """A fresh, unfitted copy of the estimator with identical parameters."""
    params = {k: copy.deepcopy(v) for k, v in estimator.get_params().items()}
    return type(estimator)(**params)


class BaseClassifier(BaseEstimator, ABC):
    """A binary / multi-class classifier.

    Sub-classes implement ``_fit`` and ``_predict_proba``; the base handles
    input validation, class bookkeeping, and the prediction argmax.
    """

    def __init__(self) -> None:
        self.classes_: np.ndarray | None = None
        self.n_features_in_: int | None = None

    @property
    def is_fitted(self) -> bool:
        return self.classes_ is not None

    def fit(self, X: Any, y: Any) -> "BaseClassifier":
        """Fit the classifier on features ``X`` and labels ``y``."""
        self._fit(*self._begin_fit(X, y))
        return self

    def fit_many(
        self,
        X: Any,
        targets: Sequence[Any],
        rows: Optional[Sequence[Any]] = None,
    ) -> list["BaseClassifier"]:
        """One fitted clone per label vector in ``targets``.

        Without ``rows``, every clone trains on all of ``X``: equal to
        ``[clone(self).fit(X, y) for y in targets]``.  With ``rows``,
        ``rows[i]`` indexes the training rows of ``X`` for ``targets[i]``
        (so ``targets[i]`` is aligned with ``X[rows[i]]``): equal to
        ``[clone(self).fit(X[r], y) for r, y in zip(rows, targets)]``.
        Equality is bitwise; ``X`` is validated once.  A model that can
        share work across targets (or row subsets) overrides
        :meth:`_fit_stack`.
        """
        features = _as_2d_float(X)
        subsets = None
        if rows is not None:
            if len(rows) != len(targets):
                raise ValueError(f"got {len(rows)} row subsets for {len(targets)} targets")
            # Indexing an arange normalises lists, masks and negative indices.
            positions = np.arange(features.shape[0])
            subsets = [positions[subset] for subset in rows]
            if any(subset.ndim != 1 for subset in subsets):
                raise ValueError("each row subset must be a 1-D index array or mask")
        models = [clone(self) for _ in targets]
        sizes = [features.shape[0]] * len(targets) if subsets is None else [s.size for s in subsets]
        labels = [
            model._check_labels(size, features.shape[1], y)
            for model, size, y in zip(models, sizes, targets)
        ]
        if models:
            self._fit_stack(models, features, labels, subsets)
        return models

    def _fit_stack(
        self,
        models: list["BaseClassifier"],
        X: np.ndarray,
        labels: list[np.ndarray],
        rows: Optional[list[np.ndarray]] = None,
    ) -> None:
        """Fit ``models`` (clones of ``self``, classes recorded), one each.

        Model ``i`` trains on ``X[rows[i]]`` (all of ``X`` if ``rows`` is
        ``None``) with ``labels[i]``.
        """
        for i, (model, y) in enumerate(zip(models, labels)):
            model._fit(X if rows is None else X[rows[i]], y)

    def _begin_fit(self, X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
        """Validate ``X`` and ``y`` and record the classes and feature count."""
        features = _as_2d_float(X)
        return features, self._check_labels(features.shape[0], features.shape[1], y)

    def _check_labels(self, n_samples: int, n_features: int, y: Any) -> np.ndarray:
        """Validate ``y`` against ``n_samples`` rows; record the classes and feature count."""
        labels = _as_1d(y)
        if n_samples != labels.shape[0]:
            raise ValueError(f"X has {n_samples} rows but y has {labels.shape[0]} entries")
        if n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.classes_ = np.unique(labels)
        self.n_features_in_ = n_features
        return labels

    def predict_proba(self, X: Any) -> np.ndarray:
        """Class-membership probabilities, one row per sample."""
        self._check_fitted()
        features = _as_2d_float(X)
        if features.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {features.shape[1]} features; classifier was fitted with "
                f"{self.n_features_in_}"
            )
        probabilities = self._predict_proba(features)
        return np.clip(probabilities, 0.0, 1.0)

    def predict(self, X: Any) -> np.ndarray:
        """Predicted class labels."""
        probabilities = self.predict_proba(X)
        assert self.classes_ is not None
        indices = np.argmax(probabilities, axis=1)
        return self.classes_[indices]

    def score(self, X: Any, y: Any) -> float:
        """Mean accuracy on the given data."""
        labels = _as_1d(y)
        predictions = self.predict(X)
        if labels.size == 0:
            return 0.0
        return float(np.mean(predictions == labels))

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError(f"{type(self).__name__} has not been fitted yet")

    def _single_class_proba(self, n_samples: int) -> np.ndarray:
        """Probabilities when the training data contained a single class."""
        return np.ones((n_samples, 1))

    @abstractmethod
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        """Fit implementation on validated arrays."""

    @abstractmethod
    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability implementation on validated arrays."""


class BaseTransformer(BaseEstimator, ABC):
    """A feature transformer with ``fit`` / ``transform`` / ``fit_transform``."""

    @abstractmethod
    def fit(self, X: Any, y: Any = None) -> "BaseTransformer":
        """Learn transformation statistics."""

    @abstractmethod
    def transform(self, X: Any) -> np.ndarray:
        """Apply the learned transformation."""

    def fit_transform(self, X: Any, y: Any = None) -> np.ndarray:
        return self.fit(X, y).transform(X)

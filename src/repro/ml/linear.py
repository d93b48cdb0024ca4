"""Linear classifiers: logistic regression and a linear SVM.

Both are trained with full-batch gradient descent on the regularised loss
(log-loss and hinge loss, respectively).  Multi-class problems are handled
one-vs-rest.  Every binary problem of one fit -- each class of one target,
or of every target given to ``fit_many`` -- runs in one stacked descent
over a ``(k, n, f)`` view of the standardised features, bitwise equal to
descending each problem on its own (``tests/oracles/ml.py``).
"""

from __future__ import annotations

from abc import abstractmethod
import numpy as np

from repro.ml.base import BaseClassifier


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class _OneVsRestLinear(BaseClassifier):
    """A one-vs-rest linear model over standardised features.

    Fitted state: the standardisation (``_feature_mean``,
    ``_feature_scale``) and one weight row and bias per class
    (``_weights``, ``(n_classes, n_features)``; ``_biases``,
    ``(n_classes,)``), with no rows for a single-class fit.
    """

    def __init__(self) -> None:
        super().__init__()
        self._feature_mean: np.ndarray | None = None
        self._feature_scale: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._biases: np.ndarray | None = None

    @abstractmethod
    def _binary_target(self, positive: np.ndarray) -> np.ndarray:
        """The descent target of one one-vs-rest problem."""

    @abstractmethod
    def _descend(self, X: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights ``(k, f)`` and biases ``(k,)`` for ``k`` stacked targets ``(k, n)``."""

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._fit_stack([self], X, [y])

    def _fit_stack(
        self, models: list["_OneVsRestLinear"], X: np.ndarray, labels: list[np.ndarray]
    ) -> None:
        """Fit ``models`` (clones of ``self``, classes recorded) on ``X``, one each.

        Every class of every target descends in one stack.
        """
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        X_std = (X - mean) / scale
        problems = [
            self._binary_target(y == cls)
            for model, y in zip(models, labels)
            if model.classes_.size > 1
            for cls in model.classes_
        ]
        if problems:
            weights, biases = self._descend(X_std, np.array(problems))
        else:
            weights, biases = np.zeros((0, X.shape[1])), np.zeros(0)
        start = 0
        for model in models:
            stop = start + (model.classes_.size if model.classes_.size > 1 else 0)
            model._feature_mean = mean.copy()
            model._feature_scale = scale.copy()
            model._weights = weights[start:stop].copy()
            model._biases = biases[start:stop].copy()
            start = stop

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw per-class scores: one column per one-vs-rest problem."""
        self._check_fitted()
        X_std = (np.asarray(X, dtype=float) - self._feature_mean) / self._feature_scale
        assert self.classes_ is not None
        if self.classes_.size == 1:
            return np.zeros((X_std.shape[0], 1))
        # One matrix-vector product per class: a single GEMM adds in
        # another order and is not bitwise equal.
        return np.column_stack([X_std @ w + b for w, b in zip(self._weights, self._biases)])

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        assert self.classes_ is not None
        if self.classes_.size == 1:
            return self._single_class_proba(X.shape[0])
        scores = _sigmoid(self.decision_function(X))
        totals = scores.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return scores / totals


class LogisticRegression(_OneVsRestLinear):
    """L2-regularised logistic regression trained by gradient descent."""

    def __init__(
        self,
        learning_rate: float = 0.1,
        n_iterations: int = 300,
        regularization: float = 1e-3,
        fit_intercept: bool = True,
    ) -> None:
        super().__init__()
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self.regularization = regularization
        self.fit_intercept = fit_intercept

    def _binary_target(self, positive: np.ndarray) -> np.ndarray:
        return positive.astype(float)

    def _descend(self, X: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_problems, n_samples = targets.shape
        # Batched matmuls over a broadcast view: each problem gets the same
        # BLAS call as ``X @ w`` / ``X.T @ e`` alone.
        stack = np.broadcast_to(X, (n_problems,) + X.shape)
        stack_t = stack.transpose(0, 2, 1)
        targets = targets[:, :, None]
        weights = np.zeros((n_problems, X.shape[1], 1))
        biases = np.zeros((n_problems, 1, 1))
        for _ in range(self.n_iterations):
            error = _sigmoid(stack @ weights + biases) - targets
            gradient_w = stack_t @ error / n_samples + self.regularization * weights
            weights -= self.learning_rate * gradient_w
            if self.fit_intercept:
                biases -= self.learning_rate * error.mean(axis=1, keepdims=True)
        return weights[:, :, 0], biases[:, 0, 0]

    @property
    def coef_(self) -> np.ndarray:
        """Per-class weight vectors in standardised feature space."""
        self._check_fitted()
        return np.array(self._weights)


class LinearSVC(_OneVsRestLinear):
    """Linear support-vector classifier trained on the hinge loss via SGD.

    Probabilities are obtained from the decision values with a logistic
    squashing (a cheap stand-in for Platt scaling).
    """

    def __init__(
        self,
        learning_rate: float = 0.05,
        n_iterations: int = 300,
        regularization: float = 1e-2,
    ) -> None:
        super().__init__()
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self.regularization = regularization

    def _binary_target(self, positive: np.ndarray) -> np.ndarray:
        return np.where(positive, 1.0, -1.0)

    def _descend(self, X: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_problems, n_samples = targets.shape
        n_features = X.shape[1]
        stack = np.broadcast_to(X, (n_problems, n_samples, n_features))
        signed_rows = np.empty(stack.shape) if n_features > 1 else None
        weights = np.zeros((n_problems, n_features, 1))
        biases = np.zeros((n_problems, 1))
        for _ in range(self.n_iterations):
            margins = targets * ((stack @ weights)[:, :, 0] + biases)
            violating = margins < 1.0
            counts = np.count_nonzero(violating, axis=1)
            # Each problem averages over its own violating rows: the others
            # get weight zero, and each sum is divided by its own count.
            row_weights = np.where(violating, targets, 0.0)
            if signed_rows is not None:
                # Summing (k, n, f) along axis 1 adds rows in order, as
                # ``(m, f).mean(axis=0)`` does, so the zero rows are exact.
                np.multiply(row_weights[:, :, None], stack, out=signed_rows)
                sums = signed_rows.sum(axis=1)
            else:
                # An (m, 1) block sums pairwise over exactly its m rows, so
                # one feature reduces each problem's own rows.
                sums = np.array(
                    [(targets[j, rows, None] * X[rows]).sum(axis=0) for j, rows in enumerate(violating)]
                )
            penalty = self.regularization * weights[:, :, 0]
            active = counts > 0
            divisor = np.maximum(counts, 1)
            gradient_w = np.where(active[:, None], -(sums / divisor[:, None]) + penalty, penalty)
            # The bias sum adds +-1 values, exact in any order.
            gradient_b = np.where(active, -(row_weights.sum(axis=1) / divisor), 0.0)
            weights[:, :, 0] -= self.learning_rate * gradient_w
            biases[:, 0] -= self.learning_rate * gradient_b
        return weights[:, :, 0], biases[:, 0]

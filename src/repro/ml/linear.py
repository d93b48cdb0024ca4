"""Linear classifiers: logistic regression and a linear SVM.

Both are trained with full-batch gradient descent on the regularised loss
(log-loss and hinge loss, respectively).  Multi-class problems are handled
one-vs-rest.  Every binary problem of one fit -- each class of one target,
or of every target given to ``fit_many``, over every row subset given as
``rows=`` -- runs in one descent loop, bitwise equal to descending each
problem on its own (``tests/oracles/ml.py``).  Problems training on the
same rows share a ``(k, n, f)`` view of the standardised features: the
matmuls and per-problem row sums run once per row subset, every
elementwise step once across all problems.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Optional

import numpy as np

from repro.ml.base import BaseClassifier


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    ``1 / (1 + e)`` for ``z >= 0`` and ``e / (1 + e)`` otherwise, with
    ``e = exp(-|z|)``: the numerator is picked first, so one division
    serves both branches.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class _Problems:
    """Binary problems over row subsets, laid out for one descent loop.

    Subset ``s`` is a standardised feature matrix ``(n_s, f)`` with
    ``k_s`` stacked targets ``(k_s, n_s)``.  Per-row values of every
    problem live in one flat array, problem after problem (``targets``);
    ``parts[s]`` holds the subset's matrix, its ``(k_s, n_s, f)``
    broadcast view (batched matmuls over it give each problem the same
    BLAS call as ``X @ w`` / ``X.T @ e`` alone), the slice of its problems
    and the slice of its rows in the flat arrays.
    """

    def __init__(self, subsets: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self.parts: list[tuple[np.ndarray, np.ndarray, slice, slice]] = []
        problem, cell = 0, 0
        for X, targets in subsets:
            k, n = targets.shape
            stack = np.broadcast_to(X, (k,) + X.shape)
            self.parts.append((X, stack, slice(problem, problem + k), slice(cell, cell + k * n)))
            problem, cell = problem + k, cell + k * n
        self.n_problems = problem
        self.n_features = subsets[0][0].shape[1]
        counts = np.concatenate([np.full(k, n) for k, n in (t.shape for _, t in subsets)])
        #: Row count of each problem, ``(k, 1, 1)``, and the flat offset of
        #: each problem's first row.
        self.n_rows = counts.astype(float)[:, None, None]
        self.starts = np.cumsum(counts) - counts
        self.targets = np.concatenate([targets.ravel() for _, targets in subsets])

    def blocks(self, flat: np.ndarray) -> list[np.ndarray]:
        """``(k_s, n_s, 1)`` views of each subset's part of a flat per-row array."""
        return [flat[cells].reshape(stack.shape[:2] + (1,)) for _, stack, _, cells in self.parts]


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
    def _descend(self, problems: _Problems) -> tuple[np.ndarray, np.ndarray]:
        """Weights ``(k, f)`` and biases ``(k,)`` of all ``k`` problems, in order."""

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._fit_stack([self], X, [y])

    def _fit_stack(
        self,
        models: list["_OneVsRestLinear"],
        X: np.ndarray,
        labels: list[np.ndarray],
        rows: Optional[list[np.ndarray]] = None,
    ) -> None:
        """Fit ``models`` (clones of ``self``, classes recorded), one each.

        Models training on the same rows share one standardisation, and
        every class of every target, over every row subset, descends in one
        loop.
        """
        groups: dict[bytes, list[int]] = {}
        for index in range(len(models)):
            key = b"" if rows is None else rows[index].tobytes()
            groups.setdefault(key, []).append(index)
        fitted, subsets = [], []
        for members in groups.values():
            X_rows = X if rows is None else X[rows[members[0]]]
            mean = X_rows.mean(axis=0)
            scale = X_rows.std(axis=0)
            scale[scale == 0] = 1.0
            targets = [
                self._binary_target(labels[index] == cls)
                for index in members
                if models[index].classes_.size > 1
                for cls in models[index].classes_
            ]
            if targets:
                subsets.append(((X_rows - mean) / scale, np.array(targets)))
            fitted.extend((models[index], mean, scale) for index in members)
        if subsets:
            weights, biases = self._descend(_Problems(subsets))
        else:
            weights, biases = np.zeros((0, X.shape[1])), np.zeros(0)
        start = 0
        for model, mean, scale in fitted:
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

    def _descend(self, problems: _Problems) -> tuple[np.ndarray, np.ndarray]:
        shape = (problems.n_problems, problems.n_features, 1)
        weights, gradient = np.zeros(shape), np.empty(shape)
        biases = np.zeros((problems.n_problems, 1, 1))
        bias_sums = np.empty_like(biases)
        logits = np.empty(problems.targets.size)
        error = np.empty_like(logits)
        # Per subset: its stack and views of its problems' slices.
        steps = [
            (stack, stack.transpose(0, 2, 1), weights[span], biases[span],
             gradient[span], bias_sums[span], logit, error_block)
            for (_, stack, span, _), logit, error_block in zip(
                problems.parts, problems.blocks(logits), problems.blocks(error)
            )
        ]
        for _ in range(self.n_iterations):
            for stack, _, weight, bias, _, _, logit, _ in steps:
                np.matmul(stack, weight, out=logit)
                logit += bias
            np.subtract(_sigmoid(logits), problems.targets, out=error)
            for _, stack_t, _, _, gradient_block, bias_sum, _, error_block in steps:
                np.matmul(stack_t, error_block, out=gradient_block)
                # ``error.mean(axis=1)`` is this sum over the row count.
                np.add.reduce(error_block, axis=1, out=bias_sum, keepdims=True)
            weights -= self.learning_rate * (
                gradient / problems.n_rows + self.regularization * weights
            )
            if self.fit_intercept:
                biases -= self.learning_rate * (bias_sums / problems.n_rows)
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

    def _descend(self, problems: _Problems) -> tuple[np.ndarray, np.ndarray]:
        targets = problems.targets
        weights = np.zeros((problems.n_problems, problems.n_features, 1))
        biases = np.zeros((problems.n_problems, 1, 1))
        sums = np.empty((problems.n_problems, problems.n_features))
        scores = np.empty(targets.size)
        multi = problems.n_features > 1
        # Per subset: its rows and stack, views of its problems' slices and,
        # with several features, a contiguous copy of the stack (the hinge
        # row products run faster from it) and their workspace.
        steps = [
            (X, stack, span, cells, weights[span], biases[span], score,
             np.ascontiguousarray(stack) if multi else None,
             np.empty(stack.shape) if multi else None)
            for (X, stack, span, cells), score in zip(problems.parts, problems.blocks(scores))
        ]
        for _ in range(self.n_iterations):
            for _, stack, _, _, weight, bias, score, _, _ in steps:
                np.matmul(stack, weight, out=score)
                score += bias
            violating = targets * scores < 1.0
            # Each problem averages over its own violating rows: the others
            # get weight zero, and each sum is divided by its own count.
            row_weights = np.where(violating, targets, 0.0)
            # Counts and the bias sums add 0 and +-1 values: exact in any order.
            counts = np.add.reduceat(violating, problems.starts, dtype=np.intp)
            bias_sums = np.add.reduceat(row_weights, problems.starts)
            for X, stack, span, cells, _, _, _, stacked_rows, signed in steps:
                row_weight = row_weights[cells].reshape(stack.shape[:2])
                if multi:
                    # Summing (k, n, f) along axis 1 adds rows in order, as
                    # ``(m, f).mean(axis=0)`` does, so the zero rows are exact.
                    np.multiply(row_weight[:, :, None], stacked_rows, out=signed)
                    np.add.reduce(signed, axis=1, out=sums[span])
                else:
                    # An (m, 1) block sums pairwise over exactly its m rows,
                    # so one feature reduces each problem's own rows.
                    for j, weight in zip(range(span.start, span.stop), row_weight):
                        rows = weight != 0.0
                        sums[j] = (weight[rows, None] * X[rows]).sum(axis=0)
            penalty = self.regularization * weights[:, :, 0]
            active = counts > 0
            divisor = np.maximum(counts, 1)
            gradient_w = np.where(active[:, None], -(sums / divisor[:, None]) + penalty, penalty)
            gradient_b = np.where(active, -(bias_sums / divisor), 0.0)
            weights[:, :, 0] -= self.learning_rate * gradient_w
            biases[:, 0, 0] -= self.learning_rate * gradient_b
        return weights[:, :, 0], biases[:, 0, 0]

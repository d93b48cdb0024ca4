"""Gradient boosting classifier (binary log-loss, regression-tree base learners)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.base import BaseClassifier


@dataclass
class _RegressionNode:
    """A node of a small regression tree fitted to residuals."""

    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_RegressionNode"] = None
    right: Optional["_RegressionNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class _RegressionTree:
    """A depth-limited regression tree minimising squared error (for boosting)."""

    def __init__(self, max_depth: int, min_samples_leaf: int, rng: np.random.Generator) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.rng = rng
        self.root: Optional[_RegressionNode] = None

    def fit(self, X: np.ndarray, residuals: np.ndarray) -> "_RegressionTree":
        self.root = self._build(X, residuals, depth=0)
        return self

    def _best_split(
        self, X: np.ndarray, residuals: np.ndarray
    ) -> Optional[tuple[int, float]]:
        n_samples, n_features = X.shape
        parent_error = residuals.var() * n_samples
        best: Optional[tuple[int, float]] = None
        best_error = parent_error - 1e-12
        for feature in range(n_features):
            order = np.argsort(X[:, feature], kind="stable")
            values = X[order, feature]
            targets = residuals[order]
            cumulative = np.cumsum(targets)
            cumulative_sq = np.cumsum(targets**2)
            total = cumulative[-1]
            total_sq = cumulative_sq[-1]
            for split_index in range(self.min_samples_leaf, n_samples - self.min_samples_leaf + 1):
                if split_index >= n_samples or values[split_index] == values[split_index - 1]:
                    continue
                left_sum = cumulative[split_index - 1]
                left_sq = cumulative_sq[split_index - 1]
                n_left = split_index
                n_right = n_samples - split_index
                right_sum = total - left_sum
                right_sq = total_sq - left_sq
                left_error = left_sq - left_sum**2 / n_left
                right_error = right_sq - right_sum**2 / n_right
                error = left_error + right_error
                if error < best_error:
                    best_error = error
                    threshold = (values[split_index] + values[split_index - 1]) / 2.0
                    best = (feature, float(threshold))
        return best

    def _build(self, X: np.ndarray, residuals: np.ndarray, depth: int) -> _RegressionNode:
        node = _RegressionNode(value=float(residuals.mean()) if residuals.size else 0.0)
        if depth >= self.max_depth or residuals.size < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(X, residuals)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], residuals[mask], depth + 1)
        node.right = self._build(X[~mask], residuals[~mask], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        assert self.root is not None
        predictions = np.zeros(X.shape[0])
        for index, sample in enumerate(X):
            node = self.root
            while not node.is_leaf:
                assert node.left is not None and node.right is not None
                node = node.left if sample[node.feature] <= node.threshold else node.right
            predictions[index] = node.value
        return predictions

    # ------------------------------------------------------------------ #
    # Structured state (artifact serialization)
    # ------------------------------------------------------------------ #

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the fitted tree into parallel arrays (pre-order indexing).

        Mirrors :meth:`repro.ml.tree.DecisionTreeClassifier.tree_arrays`:
        ``value``, ``feature`` (``-1`` for leaves), ``threshold`` and
        ``children_left`` / ``children_right`` node-index arrays.
        """
        assert self.root is not None
        order: list[_RegressionNode] = []
        index_of: dict[int, int] = {}
        stack: list[_RegressionNode] = [self.root]
        while stack:
            node = stack.pop()
            index_of[id(node)] = len(order)
            order.append(node)
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                stack.append(node.right)
                stack.append(node.left)
        n_nodes = len(order)
        value = np.zeros(n_nodes, dtype=np.float64)
        feature = np.full(n_nodes, -1, dtype=np.int64)
        threshold = np.zeros(n_nodes, dtype=np.float64)
        children_left = np.full(n_nodes, -1, dtype=np.int64)
        children_right = np.full(n_nodes, -1, dtype=np.int64)
        for index, node in enumerate(order):
            value[index] = node.value
            if not node.is_leaf:
                assert node.feature is not None
                feature[index] = node.feature
                threshold[index] = node.threshold
                children_left[index] = index_of[id(node.left)]
                children_right[index] = index_of[id(node.right)]
        return {
            "value": value,
            "feature": feature,
            "threshold": threshold,
            "children_left": children_left,
            "children_right": children_right,
        }

    @classmethod
    def from_arrays(
        cls,
        arrays: dict[str, np.ndarray],
        max_depth: int,
        min_samples_leaf: int,
        n_features: Optional[int] = None,
    ) -> "_RegressionTree":
        """Rebuild a fitted regression tree from :meth:`to_arrays` output.

        With ``n_features`` given, a split on a column outside
        ``[0, n_features)`` is rejected like a dangling child.
        """
        value = np.asarray(arrays["value"], dtype=np.float64)
        feature = np.asarray(arrays["feature"], dtype=np.int64)
        threshold = np.asarray(arrays["threshold"], dtype=np.float64)
        children_left = np.asarray(arrays["children_left"], dtype=np.int64)
        children_right = np.asarray(arrays["children_right"], dtype=np.int64)
        tree = cls(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            rng=np.random.default_rng(0),
        )
        n_nodes = value.shape[0]
        if n_nodes == 0:
            raise ValueError("tree arrays must contain at least one node")
        nodes = [
            _RegressionNode(
                value=float(value[index]),
                feature=None if feature[index] < 0 else int(feature[index]),
                threshold=float(threshold[index]),
            )
            for index in range(n_nodes)
        ]
        for index, node in enumerate(nodes):
            if node.is_leaf:
                continue
            if n_features is not None and node.feature >= n_features:
                raise ValueError(
                    f"tree arrays split node {index} on feature {node.feature}, "
                    f"but the model has {n_features} features"
                )
            left, right = int(children_left[index]), int(children_right[index])
            # Strictly increasing child indices (pre-order invariant) keep
            # crafted arrays from forming cycles that would hang predict.
            if not (index < left < n_nodes and index < right < n_nodes):
                raise ValueError(
                    f"tree arrays reference an invalid child at node {index}: "
                    "child indices must be strictly increasing (acyclic)"
                )
            node.left = nodes[left]
            node.right = nodes[right]
        tree.root = nodes[0]
        return tree


class GradientBoostingClassifier(BaseClassifier):
    """Binary gradient boosting with log-loss; multi-class handled one-vs-rest."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        random_state: Optional[int] = None,
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self._ensembles: list[tuple[float, list[_RegressionTree]]] = []

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))

    def _fit_binary(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[float, list[_RegressionTree]]:
        positive_rate = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        initial = float(np.log(positive_rate / (1 - positive_rate)))
        scores = np.full(X.shape[0], initial)
        trees: list[_RegressionTree] = []
        for _ in range(self.n_estimators):
            probabilities = self._sigmoid(scores)
            residuals = y - probabilities
            tree = _RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf, rng=rng
            ).fit(X, residuals)
            scores = scores + self.learning_rate * tree.predict(X)
            trees.append(tree)
        return initial, trees

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        assert self.classes_ is not None
        rng = np.random.default_rng(self.random_state)
        self._ensembles = []
        if self.classes_.size == 1:
            return
        for cls in self.classes_:
            binary = (y == cls).astype(float)
            self._ensembles.append(self._fit_binary(X, binary, rng))

    def _class_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((X.shape[0], len(self._ensembles)))
        for index, (initial, trees) in enumerate(self._ensembles):
            class_score = np.full(X.shape[0], initial)
            for tree in trees:
                class_score += self.learning_rate * tree.predict(X)
            scores[:, index] = class_score
        return scores

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        assert self.classes_ is not None
        if self.classes_.size == 1:
            return self._single_class_proba(X.shape[0])
        probabilities = self._sigmoid(self._class_scores(X))
        totals = probabilities.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return probabilities / totals

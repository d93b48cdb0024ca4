"""Reference loops for ``repro.ml``: the recursive tree grower and its
split scans, the per-tree forest prediction, the per-class linear descent
and the per-label, per-fold classifier selection.

:func:`grow_recursive` has the signature of ``DecisionTreeClassifier._grow``
(grow each tree alone, node by node, by recursion) and
:func:`linear_fit_per_class` that of ``LogisticRegression._fit`` /
``LinearSVC._fit``, so a whole tree, forest, linear model or classifier
bank can be fitted on them; :func:`best_split_scalar` has the signature of
``RecursiveTree._best_split``::

    monkeypatch.setattr(DecisionTreeClassifier, "_grow", staticmethod(grow_recursive))
    monkeypatch.setattr(RecursiveTree, "_best_split", best_split_scalar)
    monkeypatch.setattr(LogisticRegression, "_fit", linear_fit_per_class)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.ml.base import BaseClassifier, clone
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LinearSVC, LogisticRegression, _sigmoid
from repro.ml.metrics import accuracy_score
from repro.ml.model_selection import KFold
from repro.ml.tree import DecisionTreeClassifier


@dataclass
class _TreeNode:
    """A node of the fitted tree: either a split or a leaf distribution."""

    class_counts: np.ndarray
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def probabilities(self) -> np.ndarray:
        total = self.class_counts.sum()
        if total == 0:
            return np.full_like(self.class_counts, 1.0 / self.class_counts.size, dtype=float)
        return self.class_counts / total


def _gini(class_counts: np.ndarray) -> float:
    total = class_counts.sum()
    if total == 0:
        return 0.0
    probabilities = class_counts / total
    return float(1.0 - (probabilities**2).sum())


class RecursiveTree:
    """One tree grown alone, node by node: the grower the lockstep replaced.

    Takes a ``DecisionTreeClassifier``'s parameters and seed; ``fit`` grows
    the linked ``_TreeNode`` structure with one split search per node,
    ``tree_arrays`` flattens it in pre-order and ``predict_proba`` walks
    the nodes.
    """

    def __init__(self, params: DecisionTreeClassifier) -> None:
        self.max_depth = params.max_depth
        self.min_samples_split = params.min_samples_split
        self.min_samples_leaf = params.min_samples_leaf
        self.max_features = params.max_features
        self.random_state = params.random_state
        self._rng = np.random.default_rng(self.random_state)
        self._n_split_features = params._n_split_features

    def _class_counts(self, y_encoded: np.ndarray) -> np.ndarray:
        return np.bincount(y_encoded, minlength=self.classes_.size).astype(float)

    def _best_split(
        self, X: np.ndarray, y_encoded: np.ndarray
    ) -> Optional[tuple[int, float, np.ndarray]]:
        """Find the impurity-minimising (feature, threshold) split, if any.

        Vectorised over split positions within one node: per feature,
        cumulative class counts give every left/right Gini in one shot.
        Selection order (feature order, first index achieving the minimum,
        strict improvement over the running best) matches
        :func:`best_split_scalar`.
        """
        n_samples, n_features = X.shape
        parent_counts = self._class_counts(y_encoded)
        parent_impurity = _gini(parent_counts)
        if parent_impurity == 0.0 or n_samples < 2:
            return None

        candidate_features = self._rng.choice(
            n_features, size=self._n_split_features(n_features), replace=False
        )
        candidates = X[:, candidate_features]
        order = np.argsort(candidates, axis=0, kind="stable")
        values = np.take_along_axis(candidates, order, axis=0)
        one_hot = np.identity(parent_counts.size)[y_encoded[order]]
        left_counts = one_hot.cumsum(axis=0)[:-1]
        right_counts = parent_counts - left_counts

        n_left = np.arange(1, n_samples, dtype=float)
        n_right = n_samples - n_left
        leaf_ok = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        valid = leaf_ok[:, None] & (values[1:] != values[:-1])
        if not valid.any():
            return None

        gini_left = 1.0 - ((left_counts / n_left[:, None, None]) ** 2).sum(axis=2)
        gini_right = 1.0 - ((right_counts / n_right[:, None, None]) ** 2).sum(axis=2)
        weighted = (n_left[:, None] * gini_left + n_right[:, None] * gini_right) / n_samples
        weighted[~valid] = np.inf

        best: Optional[tuple[int, float, np.ndarray]] = None
        best_score = parent_impurity - 1e-12
        best_offsets = np.argmin(weighted, axis=0)
        best_scores = weighted[best_offsets, np.arange(candidate_features.size)]
        for column, feature in enumerate(candidate_features):
            score = float(best_scores[column])
            if score < best_score:
                best_score = score
                split_index = int(best_offsets[column]) + 1
                threshold = (values[split_index, column] + values[split_index - 1, column]) / 2.0
                best = (
                    int(feature),
                    float(threshold),
                    left_counts[split_index - 1, column].copy(),
                )
        return best

    def _grow_node(
        self, X: np.ndarray, y_encoded: np.ndarray, depth: int
    ) -> tuple[_TreeNode, Optional[np.ndarray]]:
        """One node, its importance gain recorded; the left-child mask if it splits."""
        counts = self._class_counts(y_encoded)
        node = _TreeNode(class_counts=counts)
        if (
            X.shape[0] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.count_nonzero(counts) == 1
            or X.shape[1] == 0
        ):
            return node, None

        split = self._best_split(X, y_encoded)
        if split is None:
            return node, None
        feature, threshold, _ = split
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():
            return node, None

        parent_impurity = _gini(counts)
        left_labels = y_encoded[mask]
        right_labels = y_encoded[~mask]
        weighted_child = (
            left_labels.size * _gini(self._class_counts(left_labels))
            + right_labels.size * _gini(self._class_counts(right_labels))
        ) / y_encoded.size
        self._importances[feature] += y_encoded.size * (parent_impurity - weighted_child)

        node.feature = feature
        node.threshold = threshold
        return node, mask

    def _build(self, X: np.ndarray, y_encoded: np.ndarray, depth: int) -> _TreeNode:
        """Grow the tree in recursion order: parent, left subtree, right subtree.

        An explicit stack (right pushed before left) stands in for the call
        stack, so ``max_depth=None`` chains cannot exceed the recursion
        limit; importance gains accumulate in the recursion's order.
        """
        stack: list[tuple[_TreeNode, np.ndarray, np.ndarray, int, str]] = []

        def push_children(node, mask, X_node, y_node, level) -> None:
            if mask is not None:
                stack.append((node, X_node[~mask], y_node[~mask], level + 1, "right"))
                stack.append((node, X_node[mask], y_node[mask], level + 1, "left"))

        root, root_mask = self._grow_node(X, y_encoded, depth)
        push_children(root, root_mask, X, y_encoded, depth)
        while stack:
            parent, X_child, y_child, level, side = stack.pop()
            child, child_mask = self._grow_node(X_child, y_child, level)
            setattr(parent, side, child)
            push_children(child, child_mask, X_child, y_child, level)
        return root

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RecursiveTree":
        self.classes_ = np.unique(y)
        self._importances = np.zeros(X.shape[1])
        self._root = self._build(X, np.searchsorted(self.classes_, y), depth=0)
        total = self._importances.sum()
        self.feature_importances_ = (
            self._importances / total if total > 0 else self._importances.copy()
        )
        return self

    def tree_arrays(self) -> dict[str, np.ndarray]:
        """The nodes flattened in pre-order (left subtree first)."""
        order: list[_TreeNode] = []
        index_of: dict[int, int] = {}
        stack = [self._root]
        while stack:
            node = stack.pop()
            index_of[id(node)] = len(order)
            order.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        n_nodes = len(order)
        feature = np.full(n_nodes, -1, dtype=np.int64)
        threshold = np.zeros(n_nodes, dtype=np.float64)
        children_left = np.full(n_nodes, -1, dtype=np.int64)
        children_right = np.full(n_nodes, -1, dtype=np.int64)
        class_counts = np.zeros((n_nodes, self.classes_.size), dtype=np.float64)
        for index, node in enumerate(order):
            class_counts[index] = node.class_counts
            if not node.is_leaf:
                feature[index] = node.feature
                threshold[index] = node.threshold
                children_left[index] = index_of[id(node.left)]
                children_right[index] = index_of[id(node.right)]
        return {
            "feature": feature,
            "threshold": threshold,
            "children_left": children_left,
            "children_right": children_right,
            "class_counts": class_counts,
        }

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Route every row down the linked nodes (old per-node routing)."""
        out = np.zeros((X.shape[0], self.classes_.size))
        stack = [(self._root, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = node.probabilities()
                continue
            goes_left = X[rows, node.feature] <= node.threshold
            if goes_left.any():
                stack.append((node.left, rows[goes_left]))
            if not goes_left.all():
                stack.append((node.right, rows[~goes_left]))
        return out


def grow_recursive(
    X: np.ndarray,
    trees: Sequence[DecisionTreeClassifier],
    samples: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
) -> list[RecursiveTree]:
    """``DecisionTreeClassifier._grow``, one :class:`RecursiveTree` per tree.

    Fits each tree alone on ``X[samples[i]]`` and copies the result into
    ``trees[i]``; returns the recursive trees (for their node-walking
    ``predict_proba``).
    """
    grown = []
    for tree, sample, y in zip(trees, samples, labels):
        oracle = RecursiveTree(tree).fit(X[sample], y)
        tree.classes_ = oracle.classes_
        tree.n_features_in_ = X.shape[1]
        tree.set_tree_arrays(oracle.tree_arrays())
        tree.feature_importances_ = oracle.feature_importances_
        grown.append(oracle)
    return grown


def best_split_scalar(
    tree: RecursiveTree, X: np.ndarray, y_encoded: np.ndarray
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


def forest_proba_per_tree(forest: RandomForestClassifier, X: np.ndarray) -> np.ndarray:
    """``RandomForestClassifier._predict_proba``, one tree at a time.

    The loop the one-pass routing replaced: each tree predicts alone and
    adds its distribution into the forest's class columns, in tree order.
    """
    if forest.classes_.size == 1:
        return forest._single_class_proba(X.shape[0])
    stacked = np.zeros((X.shape[0], forest.classes_.size))
    for tree in forest.estimators_:
        stacked[:, np.searchsorted(forest.classes_, tree.classes_)] += tree._predict_proba(X)
    stacked /= len(forest.estimators_)
    totals = stacked.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return stacked / totals


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

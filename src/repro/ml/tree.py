"""CART-style decision tree classifier (Gini impurity, axis-aligned splits)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.base import BaseClassifier


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


class DecisionTreeClassifier(BaseClassifier):
    """Binary-split decision tree minimising Gini impurity.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` for unbounded).
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples allowed in a leaf.
    max_features:
        Number of features to consider per split: ``None`` (all),
        ``"sqrt"``, or an integer.  Random forests use ``"sqrt"``.
    random_state:
        Seed for the per-split feature sub-sampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int | str] = None,
        random_state: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._root: Optional[_TreeNode] = None
        self._rng = np.random.default_rng(random_state)
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    def _n_split_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, n_features))
        raise ValueError(f"unsupported max_features value {self.max_features!r}")

    def _class_counts(self, y_encoded: np.ndarray) -> np.ndarray:
        assert self.classes_ is not None
        return np.bincount(y_encoded, minlength=self.classes_.size).astype(float)

    def _best_split(
        self, X: np.ndarray, y_encoded: np.ndarray
    ) -> Optional[tuple[int, float, np.ndarray]]:
        """Find the impurity-minimising (feature, threshold) split, if any.

        The candidate evaluation is vectorised over split positions: per
        feature, cumulative class counts give every left/right Gini in one
        shot.  Selection order (feature order, first index achieving the
        minimum, strict improvement over the running best) matches the
        historical per-threshold scan exactly, so fitted trees are bitwise
        identical to it (``tests/oracles/ml.py`` keeps that scan).
        """
        n_samples, n_features = X.shape
        parent_counts = self._class_counts(y_encoded)
        parent_impurity = _gini(parent_counts)
        if parent_impurity == 0.0 or n_samples < 2:
            return None

        candidate_features = self._rng.choice(
            n_features, size=self._n_split_features(n_features), replace=False
        )

        # Sort every candidate column at once; cumulative one-hot class
        # counts give the left/right Gini of every (position, feature) pair.
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

        # Selection order matches the per-threshold scan: features in candidate
        # order, first index achieving each feature's minimum, strict
        # improvement over the running best.
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
        """Create one node and, if it splits, record its importance gain.

        Returns the node together with its left-child mask: ``feature`` /
        ``threshold`` are set for splits (children attached by the caller
        using the mask) and the mask is ``None`` for leaves.
        """
        counts = self._class_counts(y_encoded)
        node = _TreeNode(class_counts=counts)
        if (
            X.shape[0] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.count_nonzero(counts) == 1
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
        assert self._importances is not None
        self._importances[feature] += y_encoded.size * (parent_impurity - weighted_child)

        node.feature = feature
        node.threshold = threshold
        return node, mask

    def _build(self, X: np.ndarray, y_encoded: np.ndarray, depth: int) -> _TreeNode:
        """Grow the tree with an explicit stack (pre-order, left subtree first).

        Iterative for the same reason as the traversals: ``max_depth=None``
        chains can exceed the recursion limit.  Importance gains accumulate
        in the recursion's exact order — parent, whole left subtree, then
        right — so fitted trees and importances stay bitwise identical.
        """
        # Each entry expands one split node; pushing right before left makes
        # the stack pop the left subtree first, matching the recursion.
        stack: list[tuple[_TreeNode, np.ndarray, np.ndarray, int, str]] = []

        def _push_children(
            node: _TreeNode, mask: Optional[np.ndarray], X_node: np.ndarray, y_node: np.ndarray, level: int
        ) -> None:
            if mask is None:
                return
            stack.append((node, X_node[~mask], y_node[~mask], level + 1, "right"))
            stack.append((node, X_node[mask], y_node[mask], level + 1, "left"))

        root, root_mask = self._grow_node(X, y_encoded, depth)
        _push_children(root, root_mask, X, y_encoded, depth)
        while stack:
            parent, X_child, y_child, level, side = stack.pop()
            child, child_mask = self._grow_node(X_child, y_child, level)
            if side == "left":
                parent.left = child
            else:
                parent.right = child
            _push_children(child, child_mask, X_child, y_child, level)
        return root

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        assert self.classes_ is not None
        self._rng = np.random.default_rng(self.random_state)
        # classes_ is sorted-unique, so searchsorted is the index mapping.
        y_encoded = np.searchsorted(self.classes_, y)
        self._importances = np.zeros(X.shape[1])
        self._root = self._build(X, y_encoded, depth=0)
        total = self._importances.sum()
        self.feature_importances_ = (
            self._importances / total if total > 0 else self._importances.copy()
        )

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def _fill_proba(
        self, node: _TreeNode, X: np.ndarray, rows: np.ndarray, out: np.ndarray
    ) -> None:
        """Route all ``rows`` of ``X`` through the tree at once.

        Traversal uses an explicit stack: unbounded-depth trees
        (``max_depth=None``) can grow chains deeper than Python's recursion
        limit.
        """
        stack: list[tuple[_TreeNode, np.ndarray]] = [(node, rows)]
        while stack:
            current, current_rows = stack.pop()
            if current.is_leaf:
                out[current_rows] = current.probabilities()
                continue
            assert (
                current.left is not None
                and current.right is not None
                and current.feature is not None
            )
            goes_left = X[current_rows, current.feature] <= current.threshold
            left_rows = current_rows[goes_left]
            right_rows = current_rows[~goes_left]
            if left_rows.size:
                stack.append((current.left, left_rows))
            if right_rows.size:
                stack.append((current.right, right_rows))

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        assert self._root is not None and self.classes_ is not None
        out = np.zeros((X.shape[0], self.classes_.size))
        self._fill_proba(self._root, X, np.arange(X.shape[0]), out)
        return out

    # ------------------------------------------------------------------ #
    # Structured state (artifact serialization)
    # ------------------------------------------------------------------ #

    def tree_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the fitted tree into parallel arrays (pre-order indexing).

        Returns
        -------
        dict[str, np.ndarray]
            ``feature`` (``-1`` for leaves), ``threshold``, ``children_left``
            / ``children_right`` (node indices, ``-1`` for leaves) and
            ``class_counts`` (``(n_nodes, n_classes)``).  The arrays fully
            describe the prediction function and feed
            :mod:`repro.serve.artifacts`; :meth:`set_tree_arrays` rebuilds a
            bitwise-identical tree from them.

        Raises
        ------
        RuntimeError
            If the tree has not been fitted.
        """
        self._check_fitted()
        assert self._root is not None and self.classes_ is not None
        # Iterative pre-order walk (left subtree first) — unbounded-depth
        # chains can exceed the recursion limit, as in the traversals above.
        order: list[_TreeNode] = []
        index_of: dict[int, int] = {}
        stack: list[_TreeNode] = [self._root]
        while stack:
            node = stack.pop()
            index_of[id(node)] = len(order)
            order.append(node)
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
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
                assert node.feature is not None
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

    def set_tree_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Rebuild the fitted node structure from :meth:`tree_arrays` output.

        The caller is responsible for restoring ``classes_`` /
        ``n_features_in_`` (done by :mod:`repro.serve.artifacts`); this
        method only reconstructs the node graph.

        Raises
        ------
        ValueError
            If the arrays are inconsistent: empty (a fitted tree always
            has a root), dangling child indices, or a child index not
            strictly greater than its parent's (pre-order flattening
            always yields increasing child indices, and the check makes
            cycles — which would hang ``predict`` — impossible in arrays
            from an untrusted bundle).
        """
        feature = np.asarray(arrays["feature"], dtype=np.int64)
        threshold = np.asarray(arrays["threshold"], dtype=np.float64)
        children_left = np.asarray(arrays["children_left"], dtype=np.int64)
        children_right = np.asarray(arrays["children_right"], dtype=np.int64)
        class_counts = np.asarray(arrays["class_counts"], dtype=np.float64)
        n_nodes = feature.shape[0]
        if n_nodes == 0:
            raise ValueError("tree arrays must contain at least one node")
        nodes = [
            _TreeNode(
                class_counts=class_counts[index].copy(),
                feature=None if feature[index] < 0 else int(feature[index]),
                threshold=float(threshold[index]),
            )
            for index in range(n_nodes)
        ]
        for index, node in enumerate(nodes):
            if node.is_leaf:
                continue
            left, right = int(children_left[index]), int(children_right[index])
            if not (index < left < n_nodes and index < right < n_nodes):
                raise ValueError(
                    f"tree arrays reference an invalid child at node {index}: "
                    "child indices must be strictly increasing (acyclic)"
                )
            node.left = nodes[left]
            node.right = nodes[right]
        self._root = nodes[0]

    def depth(self) -> int:
        """Depth of the fitted tree (a single leaf has depth 0).

        Iterative traversal, safe for chains deeper than the recursion limit.
        """
        self._check_fitted()
        deepest = 0
        stack: list[tuple[Optional[_TreeNode], int]] = [(self._root, 0)]
        while stack:
            node, level = stack.pop()
            if node is None or node.is_leaf:
                continue
            deepest = max(deepest, level + 1)
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
        return deepest

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree.

        Iterative traversal, safe for chains deeper than the recursion limit.
        """
        self._check_fitted()
        leaves = 0
        stack: list[Optional[_TreeNode]] = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if node.is_leaf:
                leaves += 1
                continue
            stack.append(node.left)
            stack.append(node.right)
        return leaves

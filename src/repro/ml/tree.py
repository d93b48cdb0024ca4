"""CART-style decision tree classifier (Gini impurity, axis-aligned splits).

Trees grow in lockstep: :meth:`DecisionTreeClassifier._grow` fits any
number of trees together -- one per target of ``fit_many``, every tree of
every forest of a ``RandomForestClassifier.fit_many``, each on its own
rows of ``X`` (its bootstrap, its ``rows=`` subset).  Each step takes the
next pre-order node of every tree that still has one, evaluates all of
their candidate splits with one batched search and applies every split at
once.  Fitted trees are bitwise equal to growing each tree alone by
recursion (``tests/oracles/ml.py``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.ml.base import BaseClassifier

#: Most (node, candidate feature, sample position) cells one batched split
#: search holds.  A step with more is searched in chunks, which bounds the
#: search's memory; a node larger than the budget is searched alone.
SEARCH_BUDGET = 2048

#: The pre-order node arrays and their dtypes, in bundle order.
NODE_ARRAYS = {
    "feature": np.int64,
    "threshold": np.float64,
    "children_left": np.int64,
    "children_right": np.int64,
    "class_counts": np.float64,
}


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of a non-empty class-count matrix."""
    probabilities = counts / counts.sum(axis=1, keepdims=True)
    return 1.0 - (probabilities**2).sum(axis=1)


def class_distributions(counts: np.ndarray) -> np.ndarray:
    """Each row's class distribution (uniform for a row without samples)."""
    totals = counts.sum(axis=1, keepdims=True)
    uniform = np.full(counts.shape, 1.0 / max(counts.shape[1], 1))
    return np.divide(counts, totals, out=uniform, where=totals > 0)


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, sizes)])``."""
    offsets = np.cumsum(sizes) - sizes
    return np.repeat(starts - offsets, sizes) + np.arange(int(sizes.sum()))


def _best_splits(
    X: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    candidates: np.ndarray,
    counts: np.ndarray,
    impurity: np.ndarray,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The impurity-minimising split of each node, searched in one batch.

    Node ``i`` holds the samples ``rows[starts[i]:starts[i] + sizes[i]]``
    (rows of ``X``, labels alongside) and considers the features
    ``candidates[i]``.  The search runs on ``(node, candidate, position)``
    cells, each node padded to the largest: one stable sort orders every
    (node, candidate) column by value, padding last; cumulative integer
    class counts give the left/right Gini of every split position; each
    column keeps its first minimum.  A node splits on the first candidate
    reaching its minimum, if that beats ``impurity - 1e-12`` -- the order
    of the per-threshold scan, so splits are bitwise identical.

    Returns the split feature of each node (``-1`` for none) and its
    threshold.
    """
    n_nodes = sizes.size
    width = int(sizes.max())
    position = np.arange(width)
    real = position < sizes[:, None]
    samples = np.where(real, starts[:, None] + position, starts[:, None])
    values = X[rows[samples][:, None, :], candidates[:, :, None]]
    values[~np.broadcast_to(real[:, None, :], values.shape)] = np.inf
    order = np.argsort(values, axis=2, kind="stable")
    values = np.take_along_axis(values, order, axis=2)
    sorted_labels = labels[samples][np.arange(n_nodes)[:, None, None], order]
    del order
    # Cumulative class counts of every left side: exact integers.
    left = np.cumsum(sorted_labels[..., None] == np.arange(counts.shape[1]), axis=2).astype(float)
    del sorted_labels
    right = counts[:, None, None, :] - left

    n = sizes.astype(float)[:, None, None]
    n_left = position + 1.0
    n_right = n - n_left
    valid = np.zeros(values.shape, dtype=bool)
    valid[:, :, :-1] = values[:, :, 1:] != values[:, :, :-1]
    valid &= (n_right > 0) & (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    # weighted = (n_left * gini_left + n_right * gini_right) / n, where a
    # side's Gini is 1 - sum((class_counts / side_size) ** 2).
    left /= n_left[:, None]
    right /= np.where(n_right > 0, n_right, 1.0)[..., None]
    weighted = np.subtract(1.0, np.square(left, out=left).sum(axis=-1))
    gini_right = np.subtract(1.0, np.square(right, out=right).sum(axis=-1))
    del left, right
    weighted *= n_left
    gini_right *= n_right
    weighted += gini_right
    weighted /= n
    weighted[~valid] = np.inf

    nodes = np.arange(n_nodes)
    first = np.argmin(weighted, axis=2)
    scores = np.take_along_axis(weighted, first[:, :, None], axis=2)[:, :, 0]
    column = scores.argmin(axis=1)
    splits = scores[nodes, column] < impurity - 1e-12
    at = first[nodes, column][splits]
    split_values = values[nodes[splits], column[splits]]
    threshold = np.zeros(n_nodes)
    threshold[splits] = (
        split_values[np.arange(at.size), at + 1] + split_values[np.arange(at.size), at]
    ) / 2.0
    return np.where(splits, candidates[nodes, column], -1), threshold


class _Growth:
    """One tree's growth state: its pending nodes and its pre-order lists.

    A pending node is ``(start, stop, depth, class_counts, parent)``: its
    samples are ``start:stop`` of the group's sample arrays, and ``parent``
    is the index of the node whose right child it is (``-1`` for the root
    and left children, whose index is their parent's plus one).
    """

    __slots__ = ("tree", "rng", "stack", "feature", "threshold", "right", "counts")

    def __init__(self, tree: "DecisionTreeClassifier", root: tuple) -> None:
        self.tree = tree
        self.rng = np.random.default_rng(tree.random_state)
        self.stack = [root]
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.right: list[int] = []
        self.counts: list[np.ndarray] = []


class _Step(NamedTuple):
    """The nodes of one lockstep step, one per growing tree."""

    slots: np.ndarray  # position of each node's tree in the group
    indices: list[int]  # pre-order index of each node in its tree
    depths: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    counts: np.ndarray  # (nodes, classes)
    impurity: np.ndarray


class _Lockstep:
    """Trees that share their class count and growth parameters, grown together.

    The trees' samples lie in two arrays, tree after tree (``rows`` of
    ``X`` and encoded ``labels``); a node is a contiguous range of them,
    and a split partitions its range in place, left samples first.
    """

    def __init__(
        self,
        X: np.ndarray,
        trees: list["DecisionTreeClassifier"],
        samples: list[np.ndarray],
        encoded: list[np.ndarray],
    ) -> None:
        self.X = X
        self.params = trees[0]
        self.n_classes = trees[0].classes_.size
        self.n_candidates = trees[0]._n_split_features(X.shape[1])
        sizes = np.array([sample.size for sample in samples])
        bases = np.cumsum(sizes) - sizes
        self.rows = np.concatenate(samples)
        self.labels = np.concatenate(encoded)
        root_counts = np.bincount(
            np.repeat(np.arange(len(trees)) * self.n_classes, sizes) + self.labels,
            minlength=len(trees) * self.n_classes,
        ).reshape(len(trees), self.n_classes).astype(float)
        self.growths = [
            _Growth(tree, (int(base), int(base + size), 0, counts, -1))
            for tree, base, size, counts in zip(trees, bases, sizes, root_counts)
        ]
        self.importances = np.zeros((len(trees), X.shape[1]))

    def grow(self) -> None:
        active = list(range(len(self.growths)))
        while active:
            step = self._pop(active)
            # A matrix without columns has no split to search: a root leaf.
            eligible = (
                (step.sizes >= self.params.min_samples_split)
                & (step.sizes >= 2)
                & (np.count_nonzero(step.counts, axis=1) != 1)
                & (step.impurity != 0.0)
                & (self.X.shape[1] > 0)
            )
            if self.params.max_depth is not None:
                eligible &= step.depths < self.params.max_depth
            searched = np.flatnonzero(eligible)
            if searched.size:
                feature, threshold = self._search(step, searched)
                found = feature >= 0
                self._split(step, searched[found], feature[found], threshold[found])
            active = [slot for slot in active if self.growths[slot].stack]
        self._finish()

    def _pop(self, active: list[int]) -> _Step:
        """Take the next pre-order node of every tree in ``active``."""
        indices, starts, stops, depths, counts = [], [], [], [], []
        for slot in active:
            growth = self.growths[slot]
            start, stop, depth, node_counts, parent = growth.stack.pop()
            index = len(growth.feature)
            if parent >= 0:
                growth.right[parent] = index
            growth.feature.append(-1)
            growth.threshold.append(0.0)
            growth.right.append(-1)
            growth.counts.append(node_counts)
            indices.append(index)
            starts.append(start)
            stops.append(stop)
            depths.append(depth)
            counts.append(node_counts)
        counts_array = np.array(counts)
        starts_array = np.array(starts)
        return _Step(
            np.array(active),
            indices,
            np.array(depths),
            starts_array,
            np.array(stops) - starts_array,
            counts_array,
            _gini_rows(counts_array),
        )

    def _search(self, step: _Step, searched: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split feature (``-1`` for none) and threshold of each ``searched`` node.

        Feature subsets are drawn per tree, in pre-order, so each generator
        sees exactly the calls it would growing alone.  The search runs in
        chunks of at most :data:`SEARCH_BUDGET` cells, largest nodes first,
        so each chunk pads its nodes to a similar size; a node's search
        does not depend on its chunk.
        """
        candidates = np.array(
            [
                self.growths[step.slots[i]].rng.choice(
                    self.X.shape[1], size=self.n_candidates, replace=False
                )
                for i in searched
            ]
        ).reshape(searched.size, self.n_candidates)
        sizes = step.sizes[searched]
        feature = np.empty(searched.size, dtype=np.int64)
        threshold = np.empty(searched.size)
        by_size = np.argsort(-sizes, kind="stable")
        begin = 0
        while begin < by_size.size:
            cells = int(sizes[by_size[begin]]) * self.n_candidates
            chunk = by_size[begin : begin + max(1, SEARCH_BUDGET // cells)]
            nodes = searched[chunk]
            feature[chunk], threshold[chunk] = _best_splits(
                self.X,
                self.rows,
                self.labels,
                step.starts[nodes],
                step.sizes[nodes],
                candidates[chunk],
                step.counts[nodes],
                step.impurity[nodes],
                self.params.min_samples_leaf,
            )
            begin += chunk.size
        return feature, threshold

    def _split(
        self, step: _Step, nodes: np.ndarray, feature: np.ndarray, threshold: np.ndarray
    ) -> None:
        """Split ``nodes`` (positions in ``step``) on their found splits, all at once.

        A split sending every sample one way leaves the node a leaf.  Each
        tree splits at most once per step, so the importance gains add
        with one fancy-index add, in each tree's pre-order.
        """
        sizes = step.sizes[nodes]
        elements = _ranges(step.starts[nodes], sizes)
        owner = np.repeat(np.arange(nodes.size), sizes)
        goes_left = self.X[self.rows[elements], feature[owner]] <= threshold[owner]
        side = owner * 2 + ~goes_left
        n_classes = self.n_classes
        child_counts = np.bincount(
            side * n_classes + self.labels[elements], minlength=nodes.size * 2 * n_classes
        ).reshape(nodes.size, 2, n_classes).astype(float)
        order = np.argsort(side, kind="stable")
        self.rows[elements] = self.rows[elements[order]]
        self.labels[elements] = self.labels[elements[order]]

        n_left = child_counts[:, 0].sum(axis=1).astype(np.int64)
        real = (n_left > 0) & (n_left < sizes)
        nodes, feature, threshold = nodes[real], feature[real], threshold[real]
        sizes, n_left, child_counts = sizes[real], n_left[real], child_counts[real]
        weighted_child = (
            n_left * _gini_rows(child_counts[:, 0])
            + (sizes - n_left) * _gini_rows(child_counts[:, 1])
        ) / sizes
        slots = step.slots[nodes]
        self.importances[slots, feature] += sizes * (step.impurity[nodes] - weighted_child)

        for i, position in enumerate(nodes):
            growth = self.growths[slots[i]]
            index = step.indices[position]
            growth.feature[index] = int(feature[i])
            growth.threshold[index] = float(threshold[i])
            start = int(step.starts[position])
            middle = start + int(n_left[i])
            depth = int(step.depths[position]) + 1
            growth.stack.append((middle, start + int(sizes[i]), depth, child_counts[i, 1], index))
            growth.stack.append((start, middle, depth, child_counts[i, 0], -1))

    def _finish(self) -> None:
        """Write each tree's pre-order arrays and normalised importances."""
        for growth, importances in zip(self.growths, self.importances):
            feature = np.array(growth.feature, dtype=np.int64)
            n_nodes = feature.size
            growth.tree._nodes = {
                "feature": feature,
                "threshold": np.array(growth.threshold, dtype=np.float64),
                "children_left": np.where(feature >= 0, np.arange(1, n_nodes + 1), -1),
                "children_right": np.array(growth.right, dtype=np.int64),
                "class_counts": np.array(growth.counts, dtype=np.float64).reshape(
                    n_nodes, self.n_classes
                ),
            }
            total = importances.sum()
            growth.tree.feature_importances_ = (
                importances / total if total > 0 else importances.copy()
            )


def grow_trees(
    X: np.ndarray,
    trees: Sequence["DecisionTreeClassifier"],
    samples: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
) -> None:
    """Fit ``trees[i]`` on rows ``samples[i]`` of ``X`` with ``labels[i]``, in lockstep.

    The trees must share their growth parameters (clones differing only
    in ``random_state``).  ``labels[i]`` is aligned with ``samples[i]``;
    rows are gathered through ``samples``, so ``X`` is never copied per
    tree.  Trees with different class counts grow in separate groups, so
    every Gini sum runs over each tree's own classes.
    """
    groups: dict[int, list[int]] = {}
    encoded = []
    for index, (tree, y) in enumerate(zip(trees, labels)):
        tree.classes_ = np.unique(y)
        tree.n_features_in_ = X.shape[1]
        # classes_ is sorted-unique, so searchsorted is the index mapping.
        encoded.append(np.searchsorted(tree.classes_, y))
        groups.setdefault(tree.classes_.size, []).append(index)
    for members in groups.values():
        _Lockstep(
            X,
            [trees[i] for i in members],
            [np.asarray(samples[i], dtype=np.int64) for i in members],
            [encoded[i] for i in members],
        ).grow()


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
        self._nodes: Optional[dict[str, np.ndarray]] = None
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

    #: The grower every tree fit goes through (forests included).
    _grow = staticmethod(grow_trees)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._fit_stack([self], X, [y])

    def _fit_stack(
        self,
        models: list["DecisionTreeClassifier"],
        X: np.ndarray,
        labels: list[np.ndarray],
        rows: Optional[list[np.ndarray]] = None,
    ) -> None:
        """Grow one tree per target of ``fit_many``, all in lockstep."""
        if rows is None:
            rows = [np.arange(X.shape[0])] * len(models)
        self._grow(X, models, rows, labels)

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        """The leaf each row of ``X`` reaches, all rows routed one level at a time."""
        assert self._nodes is not None
        feature = self._nodes["feature"]
        threshold = self._nodes["threshold"]
        left = self._nodes["children_left"]
        right = self._nodes["children_right"]
        node = np.zeros(X.shape[0], dtype=np.int64)
        live = np.flatnonzero(feature[node] >= 0)
        while live.size:
            at = node[live]
            goes_left = X[live, feature[at]] <= threshold[at]
            node[live] = np.where(goes_left, left[at], right[at])
            live = live[feature[node[live]] >= 0]
        return node

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        assert self._nodes is not None
        return class_distributions(self._nodes["class_counts"])[self._leaves(X)]

    # ------------------------------------------------------------------ #
    # Structured state (artifact serialization)
    # ------------------------------------------------------------------ #

    def tree_arrays(self) -> dict[str, np.ndarray]:
        """The fitted tree as parallel arrays (pre-order indexing).

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
        assert self._nodes is not None
        return {name: self._nodes[name].copy() for name in NODE_ARRAYS}

    def set_tree_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore the fitted tree from :meth:`tree_arrays` output.

        The caller is responsible for restoring ``classes_`` /
        ``n_features_in_`` (done by :mod:`repro.serve.artifacts`) before
        calling this; this method only restores the nodes.

        Raises
        ------
        ValueError
            If the arrays are inconsistent: empty (a fitted tree always
            has a root), of mismatched lengths, with a child index that
            is dangling or not strictly greater than its parent's
            (pre-order flattening always yields increasing child indices,
            and the check makes cycles -- which would hang ``predict`` --
            impossible in arrays from an untrusted bundle), or, once
            ``n_features_in_`` is set, with a split on a column outside
            ``[0, n_features_in_)``.
        """
        nodes = {name: np.asarray(arrays[name], dtype=dtype) for name, dtype in NODE_ARRAYS.items()}
        n_nodes = nodes["feature"].shape[0]
        if n_nodes == 0:
            raise ValueError("tree arrays must contain at least one node")
        for name, array in nodes.items():
            if array.ndim != (2 if name == "class_counts" else 1) or array.shape[0] != n_nodes:
                raise ValueError(f"tree array {name!r} must have one entry per node")
        internal = np.flatnonzero(nodes["feature"] >= 0)
        for children in (nodes["children_left"], nodes["children_right"]):
            bad = internal[(children[internal] <= internal) | (children[internal] >= n_nodes)]
            if bad.size:
                raise ValueError(
                    f"tree arrays reference an invalid child at node {int(bad[0])}: "
                    "child indices must be strictly increasing (acyclic)"
                )
        if self.n_features_in_ is not None:
            bad = internal[nodes["feature"][internal] >= self.n_features_in_]
            if bad.size:
                raise ValueError(
                    f"tree arrays split node {int(bad[0])} on feature "
                    f"{int(nodes['feature'][bad[0]])}, but the tree has "
                    f"{self.n_features_in_} features"
                )
        self._nodes = nodes

    def depth(self) -> int:
        """Depth of the fitted tree (a single leaf has depth 0)."""
        self._check_fitted()
        return len(self._levels()) - 1

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        self._check_fitted()
        assert self._nodes is not None
        feature = self._nodes["feature"]
        return int(sum(np.count_nonzero(feature[level] < 0) for level in self._levels()))

    def _levels(self) -> list[np.ndarray]:
        """The nodes reachable from the root, one array per depth."""
        assert self._nodes is not None
        feature = self._nodes["feature"]
        levels = [np.zeros(1, dtype=np.int64)]
        while True:
            internal = levels[-1][feature[levels[-1]] >= 0]
            if not internal.size:
                return levels
            levels.append(
                np.unique(
                    np.concatenate(
                        [self._nodes["children_left"][internal], self._nodes["children_right"][internal]]
                    )
                )
            )

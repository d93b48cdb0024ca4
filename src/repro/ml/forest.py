"""Random forest classifier: bagged decision trees with feature sub-sampling."""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.ml.base import BaseClassifier
from repro.ml.tree import DecisionTreeClassifier, _ranges, class_distributions


class _Routing(NamedTuple):
    """Every tree of a forest as one flat node table.

    Node ``i`` of tree ``t`` is row ``roots[t] + i``; child indices point
    into the table, and ``probabilities`` holds each node's class
    distribution over the forest's classes (0.0 for a class the tree
    never saw).
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    probabilities: np.ndarray


class RandomForestClassifier(BaseClassifier):
    """An ensemble of :class:`DecisionTreeClassifier` trained on bootstrap samples.

    Probabilities are the average of the per-tree leaf distributions, the
    usual soft-voting scheme; every tree routes its rows in one pass.

    ``fit`` draws every tree's bootstrap indices and seed up front, in the
    order a tree-by-tree loop would, then grows all trees in lockstep;
    ``fit_many`` grows the trees of every target's forest together, over
    every row subset given as ``rows=``.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int | str] = "sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: list[DecisionTreeClassifier] = []
        self.feature_importances_: np.ndarray | None = None
        self._routing: Optional[_Routing] = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._fit_stack([self], X, [y])

    def _fit_stack(
        self,
        models: list["RandomForestClassifier"],
        X: np.ndarray,
        labels: list[np.ndarray],
        rows: Optional[list[np.ndarray]] = None,
    ) -> None:
        """Fit ``models`` (clones of ``self``), every tree in one lockstep.

        Forest ``i`` draws its bootstrap over its own rows, ``rows[i]``
        (all of ``X`` if ``rows`` is ``None``).
        """
        params = dict(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
        )
        trees, samples, targets = [], [], []
        for index, (forest, y) in enumerate(zip(models, labels)):
            # Each tree's randomness in the order a tree-by-tree loop draws
            # it: bootstrap indices first, then the tree's seed.
            rng = np.random.default_rng(forest.random_state)
            n_samples = y.size
            forest.estimators_ = []
            for _ in range(self.n_estimators):
                if self.bootstrap:
                    positions = rng.integers(0, n_samples, size=n_samples)
                else:
                    positions = np.arange(n_samples)
                seed = int(rng.integers(0, 2**31 - 1))
                tree = DecisionTreeClassifier(random_state=seed, **params)
                forest.estimators_.append(tree)
                trees.append(tree)
                samples.append(positions if rows is None else rows[index][positions])
                targets.append(y[positions])
        DecisionTreeClassifier._grow(X, trees, samples, targets)

        for forest in models:
            # Importances are summed in tree order.
            importances = np.zeros(X.shape[1])
            for tree in forest.estimators_:
                importances += tree.feature_importances_
            total = importances.sum()
            forest.feature_importances_ = importances / total if total > 0 else importances
            forest._index_trees()

    def _index_trees(self) -> None:
        """Derive the flat node table of ``estimators_`` (at fit and at load).

        A tree's classes are a sorted subset of the forest's (a bootstrap
        may miss a class), so ``searchsorted`` places its distributions;
        trees with the same classes get theirs in one call.
        """
        assert self.classes_ is not None
        nodes = [tree._nodes for tree in self.estimators_]
        sizes = np.array([arrays["feature"].size for arrays in nodes])
        roots = np.cumsum(sizes) - sizes
        shift = np.repeat(roots, sizes)
        by_classes: dict[bytes, list[int]] = {}
        for index, tree in enumerate(self.estimators_):
            by_classes.setdefault(tree.classes_.tobytes(), []).append(index)
        probabilities = np.zeros((int(sizes.sum()), self.classes_.size))
        for members in by_classes.values():
            columns = np.searchsorted(self.classes_, self.estimators_[members[0]].classes_)
            counts = np.concatenate([nodes[index]["class_counts"] for index in members])
            rows = _ranges(roots[members], sizes[members])
            probabilities[rows[:, None], columns] = class_distributions(counts)
        self._routing = _Routing(
            roots=roots,
            feature=np.concatenate([arrays["feature"] for arrays in nodes]),
            threshold=np.concatenate([arrays["threshold"] for arrays in nodes]),
            left=np.concatenate([arrays["children_left"] for arrays in nodes]) + shift,
            right=np.concatenate([arrays["children_right"] for arrays in nodes]) + shift,
            probabilities=probabilities,
        )

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        assert self.classes_ is not None and self._routing is not None
        if self.classes_.size == 1:
            return self._single_class_proba(X.shape[0])
        # X is validated once here; every (tree, row) pair is routed one
        # level per step, as DecisionTreeClassifier._leaves routes a tree.
        routing = self._routing
        n_trees, n_rows = routing.roots.size, X.shape[0]
        node = np.repeat(routing.roots, n_rows)
        row = np.tile(np.arange(n_rows), n_trees)
        live = np.flatnonzero(routing.feature[node] >= 0)
        while live.size:
            at = node[live]
            goes_left = X[row[live], routing.feature[at]] <= routing.threshold[at]
            node[live] = np.where(goes_left, routing.left[at], routing.right[at])
            live = live[routing.feature[node[live]] >= 0]
        # Summing along the leading tree axis adds the trees in order, as a
        # per-tree loop does; a class a tree never saw adds an exact 0.0.
        stacked = routing.probabilities[node].reshape(n_trees, n_rows, -1).sum(axis=0)
        stacked /= n_trees
        totals = stacked.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return stacked / totals

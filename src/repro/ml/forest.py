"""Random forest classifier: bagged decision trees with feature sub-sampling."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import BaseClassifier
from repro.ml.tree import DecisionTreeClassifier


class RandomForestClassifier(BaseClassifier):
    """An ensemble of :class:`DecisionTreeClassifier` trained on bootstrap samples.

    Probabilities are the average of the per-tree leaf distributions, the
    usual soft-voting scheme.

    ``fit`` draws every tree's bootstrap indices and seed up front, in the
    order a tree-by-tree loop would, then grows all trees in lockstep;
    ``fit_many`` grows the trees of every target's forest together.
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
        self._tree_column_maps: list[np.ndarray] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._fit_stack([self], X, [y])

    def _fit_stack(
        self, models: list["RandomForestClassifier"], X: np.ndarray, labels: list[np.ndarray]
    ) -> None:
        """Fit ``models`` (clones of ``self``) on ``X``, every tree in one lockstep."""
        n_samples = X.shape[0]
        params = dict(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
        )
        trees, samples, targets = [], [], []
        for forest, y in zip(models, labels):
            # Each tree's randomness in the order a tree-by-tree loop draws
            # it: bootstrap indices first, then the tree's seed.
            rng = np.random.default_rng(forest.random_state)
            forest.estimators_ = []
            for _ in range(self.n_estimators):
                if self.bootstrap:
                    sample_indices = rng.integers(0, n_samples, size=n_samples)
                else:
                    sample_indices = np.arange(n_samples)
                seed = int(rng.integers(0, 2**31 - 1))
                tree = DecisionTreeClassifier(random_state=seed, **params)
                forest.estimators_.append(tree)
                trees.append(tree)
                samples.append(sample_indices)
                targets.append(y[sample_indices])
        DecisionTreeClassifier._grow(X, trees, samples, targets)

        for forest in models:
            # Importances are summed in tree order.
            importances = np.zeros(X.shape[1])
            for tree in forest.estimators_:
                importances += tree.feature_importances_
            total = importances.sum()
            forest.feature_importances_ = importances / total if total > 0 else importances
            forest._tree_column_maps = [forest._tree_column_map(tree) for tree in forest.estimators_]

    def _tree_column_map(self, tree: DecisionTreeClassifier) -> np.ndarray:
        """Forest column index of each tree class.

        A bootstrap sample may miss a class entirely, so each tree can have
        a subset of the forest's classes; ``classes_`` is sorted-unique on
        both sides, so ``searchsorted`` is the alignment map.
        """
        assert self.classes_ is not None and tree.classes_ is not None
        return np.searchsorted(self.classes_, tree.classes_)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        assert self.classes_ is not None
        if self.classes_.size == 1:
            return self._single_class_proba(X.shape[0])
        # X is validated once here; each tree's probabilities already lie
        # in [0, 1], so the trees skip predict_proba's checks and clip.
        stacked = np.zeros((X.shape[0], self.classes_.size))
        for tree, columns in zip(self.estimators_, self._tree_column_maps):
            stacked[:, columns] += tree._predict_proba(X)
        stacked /= len(self.estimators_)
        totals = stacked.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return stacked / totals

"""Random forest classifier: bagged decision trees with feature sub-sampling."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import BaseClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.runtime import RuntimeSpec, resolve_runner


def _fit_tree_task(task, shared) -> DecisionTreeClassifier:
    """Fit one tree from pre-drawn randomness (module-level for pickling).

    ``shared`` carries the training matrices and tree parameters common to
    every task (delivered once per process worker); ``task`` is the tree's
    own pre-drawn material.
    """
    params, X, y = shared
    sample_indices, seed = task
    tree = DecisionTreeClassifier(random_state=seed, **params)
    tree.fit(X[sample_indices], y[sample_indices])
    return tree


class RandomForestClassifier(BaseClassifier):
    """An ensemble of :class:`DecisionTreeClassifier` trained on bootstrap samples.

    Probabilities are the average of the per-tree leaf distributions, the
    usual soft-voting scheme.

    Tree fits are independent once their bootstrap indices and seeds are
    drawn, so ``fit`` pre-draws all randomness in the serial order and fans
    the fits out on the selected runtime (``runtime`` parameter or the
    ``REPRO_RUNTIME`` environment variable).  Every backend and worker count
    produces bitwise-identical forests; ``serial`` is the oracle.
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
        runtime: RuntimeSpec = None,
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
        self.runtime = runtime
        self.estimators_: list[DecisionTreeClassifier] = []
        self.feature_importances_: np.ndarray | None = None
        self._tree_column_maps: list[np.ndarray] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        n_samples = X.shape[0]

        # Pre-draw every tree's randomness in the exact order the historical
        # serial loop consumed it: bootstrap indices first, then the seed.
        draws: list[tuple[np.ndarray, int]] = []
        for _ in range(self.n_estimators):
            if self.bootstrap:
                sample_indices = rng.integers(0, n_samples, size=n_samples)
            else:
                sample_indices = np.arange(n_samples)
            seed = int(rng.integers(0, 2**31 - 1))
            draws.append((sample_indices, seed))

        params = dict(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
        )
        self.estimators_ = resolve_runner(self.runtime).map(
            _fit_tree_task, draws, context=(params, X, y)
        )

        # Importances are summed in tree order, matching the serial loop.
        importances = np.zeros(X.shape[1])
        for tree in self.estimators_:
            if tree.feature_importances_ is not None:
                importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances

        self._tree_column_maps = [self._tree_column_map(tree) for tree in self.estimators_]

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
        if len(getattr(self, "_tree_column_maps", [])) != len(self.estimators_):
            # Forests fitted before the maps existed (e.g. old pickles,
            # which restore __dict__ without running __init__).
            self._tree_column_maps = [self._tree_column_map(t) for t in self.estimators_]
        stacked = np.zeros((X.shape[0], self.classes_.size))
        for tree, columns in zip(self.estimators_, self._tree_column_maps):
            stacked[:, columns] += tree.predict_proba(X)
        stacked /= len(self.estimators_)
        totals = stacked.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return stacked / totals

"""The per-threshold decision-tree split scan (``repro.ml.tree``).

:func:`best_split_scalar` has the signature of
``DecisionTreeClassifier._best_split``, so a whole tree, forest or
classifier bank can be fitted on it::

    monkeypatch.setattr(DecisionTreeClassifier, "_best_split", best_split_scalar)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, _gini


def best_split_scalar(
    tree: DecisionTreeClassifier, X: np.ndarray, y_encoded: np.ndarray
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

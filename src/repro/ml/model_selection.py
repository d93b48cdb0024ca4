"""Dataset splitting and k-fold cross-validation."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np


def train_test_split(
    X: Sequence,
    y: Sequence,
    test_size: float = 0.25,
    random_state: Optional[int] = None,
    shuffle: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split features and labels into train and test partitions."""
    features = np.asarray(X)
    labels = np.asarray(y)
    if features.shape[0] != labels.shape[0]:
        raise ValueError("X and y must have the same number of samples")
    n_samples = features.shape[0]
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must lie strictly between 0 and 1")
    n_test = max(1, int(round(n_samples * test_size)))
    if n_test >= n_samples:
        raise ValueError("test_size leaves no training samples")

    indices = np.arange(n_samples)
    if shuffle:
        rng = np.random.default_rng(random_state)
        rng.shuffle(indices)
    test_indices = indices[:n_test]
    train_indices = indices[n_test:]
    return (
        features[train_indices],
        features[test_indices],
        labels[train_indices],
        labels[test_indices],
    )


class KFold:
    """K-fold cross-validation iterator over sample indices."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: Optional[int] = None) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X: Sequence) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, test_indices)`` pairs."""
        n_samples = len(X)
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.random_state)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits, dtype=int)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for fold_size in fold_sizes:
            test_indices = indices[start : start + fold_size]
            train_indices = np.concatenate([indices[:start], indices[start + fold_size :]])
            yield train_indices, test_indices
            start += fold_size

"""Classification metrics, including the multi-label Jaccard accuracy of Eq. 7."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _validate_pair(y_true: Sequence, y_pred: Sequence) -> tuple[np.ndarray, np.ndarray]:
    true = np.asarray(y_true)
    pred = np.asarray(y_pred)
    if true.shape != pred.shape:
        raise ValueError(f"shape mismatch: y_true {true.shape} vs y_pred {pred.shape}")
    return true, pred


def accuracy_score(y_true: Sequence, y_pred: Sequence) -> float:
    """Fraction of exactly matching labels (Eq. 6 for a single characteristic)."""
    true, pred = _validate_pair(y_true, y_pred)
    if true.size == 0:
        return 0.0
    return float(np.mean(true == pred))


def jaccard_multilabel_score(Y_true: Sequence, Y_pred: Sequence) -> float:
    """The multi-label accuracy ``A_ML`` of Eq. 7.

    For each sample, the score is ``|Y ∩ Y_hat| / |Y ∪ Y_hat|`` over the
    *positive* labels; samples where both sets are empty count as 1.0 (a
    perfect prediction of "no expertise at all").
    """
    true = np.asarray(Y_true)
    pred = np.asarray(Y_pred)
    if true.shape != pred.shape:
        raise ValueError(f"shape mismatch: Y_true {true.shape} vs Y_pred {pred.shape}")
    if true.ndim != 2:
        raise ValueError("multi-label scores expect 2-D label matrices")
    if true.shape[0] == 0:
        return 0.0

    positive_true = true == 1
    positive_pred = pred == 1
    intersection = np.logical_and(positive_true, positive_pred).sum(axis=1)
    union = np.logical_or(positive_true, positive_pred).sum(axis=1)
    scores = np.where(union == 0, 1.0, intersection / np.maximum(union, 1))
    return float(scores.mean())

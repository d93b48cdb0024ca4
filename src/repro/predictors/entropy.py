"""Entropy, variance and diversity predictors (uncertainty-oriented)."""

from __future__ import annotations

import numpy as np

from repro.matching.matrix import MatchingMatrix
from repro.predictors.base import MatchingPredictor


def _entropy(probabilities: np.ndarray) -> float:
    """Shannon entropy of a (possibly unnormalised) non-negative vector."""
    total = probabilities.sum()
    if total <= 0:
        return 0.0
    p = probabilities / total
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


class MatrixEntropyPredictor(MatchingPredictor):
    """Entropy of the whole confidence matrix, normalised to [0, 1].

    Uniform mass over many candidate pairs (high uncertainty) yields high
    entropy; a few decisive correspondences yield low entropy.
    """

    name = "entropy"
    orientation = "recall"

    def __call__(self, matrix: MatchingMatrix) -> float:
        values = matrix.values.ravel()
        if values.size <= 1:
            return 0.0
        raw = _entropy(values)
        max_entropy = np.log2(values.size)
        if max_entropy == 0:
            return 0.0
        return raw / max_entropy


class RowEntropyPredictor(MatchingPredictor):
    """Average per-row entropy (how undecided the matcher is per source element)."""

    name = "row_entropy"
    orientation = "recall"

    def __call__(self, matrix: MatchingMatrix) -> float:
        values = matrix.values
        if values.size == 0 or values.shape[1] <= 1:
            return 0.0
        max_entropy = np.log2(values.shape[1])
        if max_entropy <= 0:
            return 0.0
        # Whole-matrix row entropies; zero terms contribute exactly 0.0, so
        # this matches a per-row ``_entropy`` loop to float reassociation
        # (asserted at tight tolerance in the tests).
        totals = values.sum(axis=1)
        safe_totals = np.where(totals > 0, totals, 1.0)
        p = values / safe_totals[:, None]
        positive = p > 0
        terms = np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0)
        entropies = np.where(totals > 0, -terms.sum(axis=1), 0.0)
        return float(np.mean(entropies / max_entropy))


class ConfidenceVariancePredictor(MatchingPredictor):
    """Variance of the non-zero confidences (variability of the matcher)."""

    name = "conf_var"
    orientation = "recall"

    def __call__(self, matrix: MatchingMatrix) -> float:
        values = matrix.values
        nonzero = values[values > 0]
        if nonzero.size == 0:
            return 0.0
        return float(nonzero.var())


class DiversityPredictor(MatchingPredictor):
    """Number of distinct confidence levels used, normalised by selections.

    Matchers that use a rich confidence scale expose more of their internal
    uncertainty than matchers that answer everything with 1.0.
    """

    name = "diversity"
    orientation = "recall"

    def __call__(self, matrix: MatchingMatrix) -> float:
        values = matrix.values
        nonzero = values[values > 0]
        if nonzero.size == 0:
            return 0.0
        distinct = np.unique(np.round(nonzero, 3)).size
        return distinct / nonzero.size

"""Entropy, variance and diversity predictors (uncertainty-oriented)."""

from __future__ import annotations

import numpy as np

from repro.predictors.base import MatchingPredictor, MatrixStack, count_blocks


def _neg_plogp(block: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of strictly positive probabilities."""
    return -(block * np.log2(block)).sum(axis=1)


class MatrixEntropyPredictor(MatchingPredictor):
    """Entropy of the whole confidence matrix, normalised to [0, 1].

    Uniform mass over many candidate pairs (high uncertainty) yields high
    entropy; a few decisive correspondences yield low entropy.
    """

    name = "entropy"
    orientation = "recall"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        if stack.cells <= 1:
            return np.zeros(len(stack))
        totals = stack.flat.sum(axis=1)
        has_mass = totals > 0
        p = stack.flat / np.where(has_mass, totals, 1.0)[:, None]
        raw = stack.per_matrix(count_blocks(p, (p > 0) & has_mass[:, None]), _neg_plogp)
        return raw / np.log2(stack.cells)


class RowEntropyPredictor(MatchingPredictor):
    """Average per-row entropy (how undecided the matcher is per source element).

    Zero terms contribute exactly 0.0, so the whole-stack row entropies
    match a per-row entropy loop to float reassociation (asserted at tight
    tolerance in the tests).
    """

    name = "row_entropy"
    orientation = "recall"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        if stack.n_cols <= 1:
            return np.zeros(len(stack))
        values = stack.values
        totals = values.sum(axis=2)
        safe_totals = np.where(totals > 0, totals, 1.0)
        p = values / safe_totals[:, :, None]
        positive = p > 0
        terms = np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0)
        entropies = np.where(totals > 0, -terms.sum(axis=2), 0.0)
        return np.mean(entropies / np.log2(stack.n_cols), axis=1)


class ConfidenceVariancePredictor(MatchingPredictor):
    """Variance of the non-zero confidences (variability of the matcher)."""

    name = "conf_var"
    orientation = "recall"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        return stack.per_matrix(stack.positive_blocks, lambda block: block.var(axis=1))


def _distinct_share(block: np.ndarray) -> np.ndarray:
    """Distinct confidences (rounded to 3 decimals) per row, over the row length."""
    levels = np.sort(np.round(block, 3), axis=1)
    distinct = 1 + np.count_nonzero(levels[:, 1:] != levels[:, :-1], axis=1)
    return distinct / block.shape[1]


class DiversityPredictor(MatchingPredictor):
    """Number of distinct confidence levels used, normalised by selections.

    Matchers that use a rich confidence scale expose more of their internal
    uncertainty than matchers that answer everything with 1.0.
    """

    name = "diversity"
    orientation = "recall"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        return stack.per_matrix(stack.positive_blocks, _distinct_share)

"""Structural matching predictors (dominants, binary max families, coverage).

These predictors follow Sagi & Gal's schema-matching-prediction catalogue:
they look at the *structure* of the confidence matrix -- how concentrated
the mass is on row/column maxima -- and were shown to correlate with
precision.
"""

from __future__ import annotations

import numpy as np

from repro.predictors.base import MatchingPredictor, MatrixStack, count_blocks


def _mean(block: np.ndarray) -> np.ndarray:
    return block.mean(axis=1)


class DominantsPredictor(MatchingPredictor):
    """Proportion of selected pairs that are dominant in both their row and column.

    A dominant entry holds the maximal confidence of its row *and* its
    column; a high proportion of dominants indicates a decisive, precise
    match (the ``dom`` feature of Table IV).  Counts are integers, so the
    stacked mask is bitwise-identical to an entry-by-entry loop.
    """

    name = "dom"
    orientation = "precision"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        dominants = np.count_nonzero(stack.dominant.reshape(len(stack), -1), axis=1)
        n_nonzero = stack.n_nonzero
        return np.where(n_nonzero > 0, dominants / np.maximum(n_nonzero, 1), 0.0)


class MutualDominancePredictor(MatchingPredictor):
    """Average confidence of mutually dominant entries (0 when none exist).

    The dominant entries are averaged in row-major order, a double loop's
    visit order, so the mean is bitwise identical to the loop's.
    """

    name = "mcd"
    orientation = "precision"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        return stack.per_matrix(count_blocks(stack.values, stack.dominant), _mean)


class BinaryMaxPredictor(MatchingPredictor):
    """BMM: fraction of rows whose maximum is selected (non-zero).

    Measures how much of the source schema the matcher attempted with a
    decisive choice.
    """

    name = "bmm"
    orientation = "precision"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        return np.count_nonzero(stack.row_max > 0, axis=1) / stack.n_rows


class BinaryPrecisionMaxPredictor(MatchingPredictor):
    """BPM: average of row maxima over the rows that were addressed.

    High row maxima indicate that when the matcher commits to a pair it does
    so with high confidence -- a precision-leaning signal.
    """

    name = "bpm"
    orientation = "precision"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        row_max = stack.row_max
        return stack.per_matrix(count_blocks(row_max, row_max > 0), _mean)


class MaxConfidencePredictor(MatchingPredictor):
    """The single maximal confidence in the matrix."""

    name = "max_conf"
    orientation = "precision"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        return stack.flat.max(axis=1)


class AverageConfidencePredictor(MatchingPredictor):
    """Average confidence over selected (non-zero) entries."""

    name = "avg_conf"
    orientation = "precision"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        return stack.per_matrix(stack.positive_blocks, _mean)


class CoveragePredictor(MatchingPredictor):
    """Fraction of candidate pairs addressed: the match density.

    Density grows with the number of decisions, making it a recall-leaning
    predictor.
    """

    name = "coverage"
    orientation = "recall"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        return stack.n_nonzero / stack.cells

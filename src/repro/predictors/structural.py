"""Structural matching predictors (dominants, binary max families, coverage).

These predictors follow Sagi & Gal's schema-matching-prediction catalogue:
they look at the *structure* of the confidence matrix -- how concentrated
the mass is on row/column maxima -- and were shown to correlate with
precision.
"""

from __future__ import annotations

import numpy as np

from repro.matching.matrix import MatchingMatrix
from repro.predictors.base import MatchingPredictor


def _dominant_mask(values: np.ndarray) -> np.ndarray:
    """Non-zero entries that are maximal in both their row and column."""
    row_max = values.max(axis=1)
    col_max = values.max(axis=0)
    return (values > 0) & (values >= row_max[:, None]) & (values >= col_max[None, :])


class DominantsPredictor(MatchingPredictor):
    """Proportion of selected pairs that are dominant in both their row and column.

    A dominant entry holds the maximal confidence of its row *and* its
    column; a high proportion of dominants indicates a decisive, precise
    match (the ``dom`` feature of Table IV).  One boolean mask over the
    whole matrix; counts are integers, so it is bitwise-identical to an
    entry-by-entry loop.
    """

    name = "dom"
    orientation = "precision"

    def __call__(self, matrix: MatchingMatrix) -> float:
        values = matrix.values
        n_nonzero = int(np.count_nonzero(values))
        if not n_nonzero:
            return 0.0
        return int(_dominant_mask(values).sum()) / n_nonzero


class MutualDominancePredictor(MatchingPredictor):
    """Average confidence of mutually dominant entries (0 when none exist).

    One mask extracts the dominant entries in row-major order, exactly a
    double loop's visit order, so the averaged values — and hence the
    mean — are bitwise identical to the loop's.
    """

    name = "mcd"
    orientation = "precision"

    def __call__(self, matrix: MatchingMatrix) -> float:
        values = matrix.values
        if values.size == 0:
            return 0.0
        dominant_values = values[_dominant_mask(values)]
        if not dominant_values.size:
            return 0.0
        return float(np.mean(dominant_values))


class BinaryMaxPredictor(MatchingPredictor):
    """BMM: fraction of rows whose maximum is selected (non-zero).

    Measures how much of the source schema the matcher attempted with a
    decisive choice.
    """

    name = "bmm"
    orientation = "precision"

    def __call__(self, matrix: MatchingMatrix) -> float:
        values = matrix.values
        if values.shape[0] == 0:
            return 0.0
        covered_rows = np.count_nonzero(values.max(axis=1) > 0)
        return covered_rows / values.shape[0]


class BinaryPrecisionMaxPredictor(MatchingPredictor):
    """BPM: average of row maxima over the rows that were addressed.

    High row maxima indicate that when the matcher commits to a pair it does
    so with high confidence -- a precision-leaning signal.
    """

    name = "bpm"
    orientation = "precision"

    def __call__(self, matrix: MatchingMatrix) -> float:
        values = matrix.values
        if values.shape[0] == 0:
            return 0.0
        row_max = values.max(axis=1)
        addressed = row_max[row_max > 0]
        if addressed.size == 0:
            return 0.0
        return float(addressed.mean())


class MaxConfidencePredictor(MatchingPredictor):
    """The single maximal confidence in the matrix."""

    name = "max_conf"
    orientation = "precision"

    def __call__(self, matrix: MatchingMatrix) -> float:
        values = matrix.values
        if values.size == 0:
            return 0.0
        return float(values.max())


class AverageConfidencePredictor(MatchingPredictor):
    """Average confidence over selected (non-zero) entries."""

    name = "avg_conf"
    orientation = "precision"

    def __call__(self, matrix: MatchingMatrix) -> float:
        return matrix.mean_confidence()


class CoveragePredictor(MatchingPredictor):
    """Fraction of candidate pairs addressed: the match density.

    Density grows with the number of decisions, making it a recall-leaning
    predictor.
    """

    name = "coverage"
    orientation = "recall"

    def __call__(self, matrix: MatchingMatrix) -> float:
        return matrix.density

"""Matrix-norm predictors: uncertainty / error-mass quantification.

Matrix norms quantify the amount of mass (and thus potential error) in a
matching matrix; the LRSM work uses them as recall-oriented features since
uncertainty and variability were shown to correlate with recall and
negatively correlate with precision (Section III-A, Thoroughness features).
All norms are normalised by the matrix size so schemata of different sizes
remain comparable.
"""

from __future__ import annotations

import numpy as np

from repro.predictors.base import MatchingPredictor, MatrixStack


class FrobeniusNormPredictor(MatchingPredictor):
    """Frobenius norm of the confidence matrix, normalised by sqrt(size).

    One ``dot`` per raveled matrix, the BLAS ``ddot`` ``np.linalg.norm``
    uses, so the sum of squares is accumulated in its order.
    """

    name = "norm_fro"
    orientation = "recall"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        squares = np.array([row.dot(row) for row in stack.flat])
        return np.sqrt(squares) / np.sqrt(stack.cells)


class LInfinityNormPredictor(MatchingPredictor):
    """Maximum absolute row sum, normalised by the number of columns (``normsinf``)."""

    name = "normsinf"
    orientation = "recall"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        return np.abs(stack.values).sum(axis=2).max(axis=1) / stack.n_cols


class L1NormPredictor(MatchingPredictor):
    """Maximum absolute column sum, normalised by the number of rows."""

    name = "norms1"
    orientation = "recall"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        return np.abs(stack.values).sum(axis=1).max(axis=1) / stack.n_rows


class SpectralNormPredictor(MatchingPredictor):
    """Largest singular value, normalised by sqrt(min dimension)."""

    name = "norms2"
    orientation = "recall"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        return stack.singular_values[:, 0] / np.sqrt(min(stack.n_rows, stack.n_cols))

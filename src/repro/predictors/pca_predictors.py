"""Spectral (PCA-based) predictors: pca1 and pca2 of Table IV.

The fraction of variance captured by the leading principal components of
the confidence matrix summarises how low-rank (structured) the matcher's
output is.  A nearly rank-one matrix signals a consistent matching pattern;
spread-out spectra signal diversity and uncertainty.
"""

from __future__ import annotations

import numpy as np

from repro.predictors.base import MatchingPredictor, MatrixStack


class PCAPredictor(MatchingPredictor):
    """Fraction of spectral energy captured by the ``component``-th singular value."""

    orientation = "precision"

    def __init__(self, component: int = 1) -> None:
        if component < 1:
            raise ValueError("component index must be >= 1")
        self.component = component
        self.name = f"pca{component}"

    def _batch(self, stack: MatrixStack) -> np.ndarray:
        singular_values = stack.singular_values
        out = np.zeros(len(stack))
        if self.component > singular_values.shape[1]:
            return out
        energy = (singular_values**2).sum(axis=1)
        # The chosen value is squared as a Python float (C ``pow()``); an
        # array square rounds differently in the last bit for some values.
        captured = np.array([v**2 for v in singular_values[:, self.component - 1].tolist()])
        return np.divide(captured, energy, out=out, where=energy > 0)

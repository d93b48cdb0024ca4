"""Loop oracles for the vectorized matching predictors (``repro.predictors``)."""

from __future__ import annotations

import numpy as np

from repro.matching.matrix import MatchingMatrix
from repro.predictors.entropy import _entropy


def dominants_loop(matrix: MatchingMatrix) -> float:
    """``dom``: the share of selected entries maximal in their row and column."""
    values = matrix.values
    nonzero = matrix.nonzero_entries()
    if not nonzero:
        return 0.0
    row_max = values.max(axis=1)
    col_max = values.max(axis=0)
    dominants = sum(
        1 for (i, j) in nonzero if values[i, j] >= row_max[i] and values[i, j] >= col_max[j]
    )
    return dominants / len(nonzero)


def mutual_dominance_loop(matrix: MatchingMatrix) -> float:
    """``mcd``: the mean of the mutually dominant entries, visited row-major."""
    values = matrix.values
    if values.size == 0:
        return 0.0
    row_max = values.max(axis=1)
    col_max = values.max(axis=0)
    dominant_values = [
        values[i, j]
        for i in range(values.shape[0])
        for j in range(values.shape[1])
        if values[i, j] > 0 and values[i, j] >= row_max[i] and values[i, j] >= col_max[j]
    ]
    if not dominant_values:
        return 0.0
    return float(np.mean(dominant_values))


def row_entropy_loop(matrix: MatchingMatrix) -> float:
    """``row_entropy``: the mean normalised per-row Shannon entropy."""
    values = matrix.values
    if values.size == 0 or values.shape[1] <= 1:
        return 0.0
    max_entropy = np.log2(values.shape[1])
    entropies = [
        _entropy(values[i]) / max_entropy if max_entropy > 0 else 0.0
        for i in range(values.shape[0])
    ]
    return float(np.mean(entropies))

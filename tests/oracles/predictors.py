"""Per-matrix oracles for the stacked matching predictors (``repro.predictors``).

Each function scores one :class:`MatchingMatrix` the way the predictor
did before it was stacked: ``MatchingPredictor.batch`` must equal these
bit for bit on every matrix of a stack.  ``dom`` and ``mcd`` are entry
loops; ``row_entropy_loop`` is the per-row entropy loop the whole-matrix
row entropy is held to at tight tolerance.

A matrix with a zero dimension scores 0.0 everywhere; the per-matrix
``bmm``/``bpm`` raised on an ``(r, 0)`` matrix instead.

:data:`ORACLES` maps each default-registry predictor name to its oracle.
"""

from __future__ import annotations

import numpy as np

from repro.matching.matrix import MatchingMatrix


def _entropy(probabilities: np.ndarray) -> float:
    """Shannon entropy of a (possibly unnormalised) non-negative vector."""
    total = probabilities.sum()
    if total <= 0:
        return 0.0
    p = probabilities / total
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


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


def binary_max(matrix: MatchingMatrix) -> float:
    """``bmm``: the share of rows whose maximum is selected."""
    values = matrix.values
    if values.size == 0:
        return 0.0
    covered_rows = np.count_nonzero(values.max(axis=1) > 0)
    return covered_rows / values.shape[0]


def binary_precision_max(matrix: MatchingMatrix) -> float:
    """``bpm``: the mean of the positive row maxima."""
    values = matrix.values
    if values.size == 0:
        return 0.0
    row_max = values.max(axis=1)
    addressed = row_max[row_max > 0]
    if addressed.size == 0:
        return 0.0
    return float(addressed.mean())


def max_confidence(matrix: MatchingMatrix) -> float:
    """``max_conf``: the largest entry."""
    values = matrix.values
    if values.size == 0:
        return 0.0
    return float(values.max())


def average_confidence(matrix: MatchingMatrix) -> float:
    """``avg_conf``: the mean of the selected entries."""
    values = matrix.values
    nonzero = values[values > 0]
    if nonzero.size == 0:
        return 0.0
    return float(nonzero.mean())


def coverage(matrix: MatchingMatrix) -> float:
    """``coverage``: the share of non-zero entries."""
    values = matrix.values
    if values.size == 0:
        return 0.0
    return int(np.count_nonzero(values)) / values.size


def frobenius_norm(matrix: MatchingMatrix) -> float:
    """``norm_fro``: the Frobenius norm over sqrt(size)."""
    values = matrix.values
    if values.size == 0:
        return 0.0
    return float(np.linalg.norm(values, ord="fro") / np.sqrt(values.size))


def linf_norm(matrix: MatchingMatrix) -> float:
    """``normsinf``: the largest absolute row sum over the column count."""
    values = matrix.values
    if values.size == 0:
        return 0.0
    return float(np.abs(values).sum(axis=1).max() / values.shape[1])


def l1_norm(matrix: MatchingMatrix) -> float:
    """``norms1``: the largest absolute column sum over the row count."""
    values = matrix.values
    if values.size == 0:
        return 0.0
    return float(np.abs(values).sum(axis=0).max() / values.shape[0])


def spectral_norm(matrix: MatchingMatrix) -> float:
    """``norms2``: the largest singular value over sqrt(min dimension)."""
    values = matrix.values
    if values.size == 0:
        return 0.0
    singular_values = np.linalg.svd(values, compute_uv=False)
    return float(singular_values[0] / np.sqrt(min(values.shape)))


def matrix_entropy(matrix: MatchingMatrix) -> float:
    """``entropy``: the whole-matrix entropy over log2(size)."""
    values = matrix.values.ravel()
    if values.size <= 1:
        return 0.0
    return float(_entropy(values) / np.log2(values.size))


def row_entropy(matrix: MatchingMatrix) -> float:
    """``row_entropy``: the whole-matrix row entropies, averaged."""
    values = matrix.values
    if values.size == 0 or values.shape[1] <= 1:
        return 0.0
    max_entropy = np.log2(values.shape[1])
    totals = values.sum(axis=1)
    safe_totals = np.where(totals > 0, totals, 1.0)
    p = values / safe_totals[:, None]
    positive = p > 0
    terms = np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0)
    entropies = np.where(totals > 0, -terms.sum(axis=1), 0.0)
    return float(np.mean(entropies / max_entropy))


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


def confidence_variance(matrix: MatchingMatrix) -> float:
    """``conf_var``: the variance of the selected entries."""
    values = matrix.values
    nonzero = values[values > 0]
    if nonzero.size == 0:
        return 0.0
    return float(nonzero.var())


def diversity(matrix: MatchingMatrix) -> float:
    """``diversity``: distinct selected confidences (3 decimals) per selection."""
    values = matrix.values
    nonzero = values[values > 0]
    if nonzero.size == 0:
        return 0.0
    return np.unique(np.round(nonzero, 3)).size / nonzero.size


def pca(matrix: MatchingMatrix, component: int) -> float:
    """``pca<component>``: that singular value's share of the spectral energy."""
    values = matrix.values
    if values.size == 0:
        return 0.0
    singular_values = np.linalg.svd(values, compute_uv=False)
    energy = (singular_values**2).sum()
    if energy <= 0 or component > singular_values.size:
        return 0.0
    return float(singular_values[component - 1] ** 2 / energy)


ORACLES = {
    "dom": dominants_loop,
    "mcd": mutual_dominance_loop,
    "bmm": binary_max,
    "bpm": binary_precision_max,
    "max_conf": max_confidence,
    "avg_conf": average_confidence,
    "coverage": coverage,
    "norm_fro": frobenius_norm,
    "normsinf": linf_norm,
    "norms1": l1_norm,
    "norms2": spectral_norm,
    "entropy": matrix_entropy,
    "row_entropy": row_entropy,
    "conf_var": confidence_variance,
    "diversity": diversity,
    "pca1": lambda matrix: pca(matrix, 1),
    "pca2": lambda matrix: pca(matrix, 2),
}


def lrsm_rows(matrices: list[MatchingMatrix], names: list[str]) -> np.ndarray:
    """The LRSM block of ``matrices``: one oracle call per matrix and predictor."""
    return np.array([[float(ORACLES[name](matrix)) for name in names] for matrix in matrices])

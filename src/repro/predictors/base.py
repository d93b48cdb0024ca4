"""Matching-predictor protocol, the matrix stack they score, and the registry.

Every predictor has one implementation, :meth:`MatchingPredictor.batch`,
which scores a whole :class:`MatrixStack` — ``n`` matrices of one shape
held as an ``(n, r, c)`` array — in a handful of array operations.
Scoring a single matrix (``predictor(matrix)``,
:meth:`PredictorRegistry.evaluate`) is a one-matrix stack.

The stacked path is bitwise equal to scoring each matrix on its own (the
per-matrix bodies are the oracles in ``tests/oracles/predictors.py``).
Three rules keep it so:

* **Equal-count blocks.** A statistic over a per-matrix selection (the
  non-zero entries, the dominants, the addressed row maxima) gathers the
  selected entries row-major per matrix and reduces matrices with the
  same count together as an ``(m, k)`` block along its last axis, so each
  matrix gets numpy's 1-D pairwise summation over exactly its entries.
* **One dot per matrix.** The Frobenius norm is a BLAS ``ddot`` of the
  raveled matrix, as in ``np.linalg.norm``; a stacked reduction would sum
  in another order.
* **Scalar squares.** ``pca1``/``pca2`` square the chosen singular value
  as a Python float (C ``pow()``), not as an array.

The singular values come from one stacked ``np.linalg.svd`` per stack,
which runs the same LAPACK routine per matrix as a per-matrix call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.matching.matrix import MatchingMatrix

#: ``(rows, block)``: the stack rows with ``k`` selected entries and their
#: ``(len(rows), k)`` entries, row-major per matrix.
CountBlock = tuple[np.ndarray, np.ndarray]


def count_blocks(values: np.ndarray, mask: np.ndarray) -> list[CountBlock]:
    """The ``mask``-selected entries of each leading row, grouped by count.

    ``values`` and ``mask`` share a shape ``(n, ...)``.  One block per
    distinct non-zero count ``k``; rows selecting nothing are left out.
    """
    n = len(values)
    counts = np.count_nonzero(mask.reshape(n, -1), axis=1)
    order = np.argsort(counts, kind="stable")
    entries = values[order][mask[order]]
    ks, starts, sizes = np.unique(counts[order], return_index=True, return_counts=True)
    blocks = []
    offset = 0
    for k, start, m in zip(ks.tolist(), starts.tolist(), sizes.tolist()):
        if k:
            block = entries[offset : offset + m * k].reshape(m, k)
            blocks.append((order[start : start + m], block))
        offset += m * k
    return blocks


class MatrixStack:
    """``n`` matching matrices of one shape ``(r, c)`` as an ``(n, r, c)`` array.

    The intermediates several predictors read — row and column maxima,
    the non-zero mask and counts, the dominant mask, the equal-count
    blocks and the singular values — are computed once, on first use.
    """

    def __init__(self, values: np.ndarray) -> None:
        array = np.asarray(values, dtype=float)
        if array.ndim != 3:
            raise ValueError(f"a matrix stack must be 3-D, got shape {array.shape}")
        self.values = array

    @classmethod
    def of(cls, matrix: MatchingMatrix) -> "MatrixStack":
        """A one-matrix stack."""
        return cls(matrix.values[np.newaxis])

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_rows(self) -> int:
        return self.values.shape[1]

    @property
    def n_cols(self) -> int:
        return self.values.shape[2]

    @property
    def cells(self) -> int:
        """Entries per matrix."""
        return self.n_rows * self.n_cols

    @cached_property
    def flat(self) -> np.ndarray:
        """Each matrix raveled row-major: ``(n, r * c)``."""
        return self.values.reshape(len(self), -1)

    @cached_property
    def row_max(self) -> np.ndarray:
        return self.values.max(axis=2)

    @cached_property
    def col_max(self) -> np.ndarray:
        return self.values.max(axis=1)

    @cached_property
    def positive(self) -> np.ndarray:
        """The selected (strictly positive) entries."""
        return self.values > 0

    @cached_property
    def n_nonzero(self) -> np.ndarray:
        return np.count_nonzero(self.flat, axis=1)

    @cached_property
    def dominant(self) -> np.ndarray:
        """Selected entries maximal in both their row and their column."""
        return (
            self.positive
            & (self.values >= self.row_max[:, :, None])
            & (self.values >= self.col_max[:, None, :])
        )

    @cached_property
    def positive_blocks(self) -> list[CountBlock]:
        return count_blocks(self.values, self.positive)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """``(n, min(r, c))`` singular values, descending, from one stacked SVD."""
        return np.linalg.svd(self.values, compute_uv=False)

    def per_matrix(
        self, blocks: Iterable[CountBlock], reduce: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """``reduce`` each ``(m, k)`` block along its rows; 0.0 where nothing was selected."""
        out = np.zeros(len(self))
        for rows, block in blocks:
            out[rows] = reduce(block)
        return out


class MatchingPredictor(ABC):
    """A function that scores a matching matrix without a reference match.

    Predictors are small, stateless objects; each exposes a ``name`` used as
    the feature name in the MExI feature vector and an ``orientation``
    declaring whether high values were empirically associated with
    precision or recall in the predictor literature.
    """

    #: Feature name (unique within a registry).
    name: str = "predictor"
    #: "precision", "recall" or "neutral" -- the quality facet the predictor leans towards.
    orientation: str = "neutral"

    def batch(self, stack: MatrixStack) -> np.ndarray:
        """Score every matrix of ``stack``: a float array of length ``len(stack)``.

        Matrices without entries (a zero dimension) score 0.0.
        """
        if stack.values.size == 0:
            return np.zeros(len(stack))
        return self._batch(stack)

    @abstractmethod
    def _batch(self, stack: MatrixStack) -> np.ndarray:
        """Score a stack of matrices with at least one entry each."""

    def __call__(self, matrix: MatchingMatrix) -> float:
        """Score one matrix: a one-matrix :meth:`batch`."""
        return float(self.batch(MatrixStack.of(matrix))[0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, orientation={self.orientation!r})"


class PredictorRegistry:
    """An ordered collection of named predictors."""

    def __init__(self, predictors: Iterable[MatchingPredictor] = ()) -> None:
        self._predictors: dict[str, MatchingPredictor] = {}
        for predictor in predictors:
            self.register(predictor)

    def register(self, predictor: MatchingPredictor) -> None:
        """Add a predictor, enforcing unique names."""
        if predictor.name in self._predictors:
            raise ValueError(f"duplicate predictor name {predictor.name!r}")
        self._predictors[predictor.name] = predictor

    def names(self) -> list[str]:
        return list(self._predictors)

    def by_orientation(self, orientation: str) -> "PredictorRegistry":
        """A sub-registry containing only predictors of the given orientation."""
        return PredictorRegistry(
            p for p in self._predictors.values() if p.orientation == orientation
        )

    def batch(self, stack: MatrixStack) -> np.ndarray:
        """Every predictor on every matrix: ``(len(stack), len(self))``, registry order."""
        out = np.zeros((len(stack), len(self)))
        for col, predictor in enumerate(self._predictors.values()):
            out[:, col] = predictor.batch(stack)
        return out

    def evaluate(self, matrix: MatchingMatrix) -> dict[str, float]:
        """Apply every predictor to ``matrix`` and collect named scores."""
        return dict(zip(self.names(), self.batch(MatrixStack.of(matrix))[0].tolist()))

    def __len__(self) -> int:
        return len(self._predictors)

    def __iter__(self) -> Iterator[MatchingPredictor]:
        return iter(self._predictors.values())

    def __contains__(self, name: object) -> bool:
        return name in self._predictors

    def __getitem__(self, name: str) -> MatchingPredictor:
        return self._predictors[name]


def default_registry() -> PredictorRegistry:
    """The predictor set used for the LRSM features (Phi_LRSM)."""
    # Imported here to avoid import cycles between base and the concrete modules.
    from repro.predictors.structural import (
        DominantsPredictor,
        BinaryMaxPredictor,
        BinaryPrecisionMaxPredictor,
        MaxConfidencePredictor,
        AverageConfidencePredictor,
        CoveragePredictor,
        MutualDominancePredictor,
    )
    from repro.predictors.norms import (
        FrobeniusNormPredictor,
        LInfinityNormPredictor,
        L1NormPredictor,
        SpectralNormPredictor,
    )
    from repro.predictors.entropy import (
        MatrixEntropyPredictor,
        RowEntropyPredictor,
        ConfidenceVariancePredictor,
        DiversityPredictor,
    )
    from repro.predictors.pca_predictors import PCAPredictor

    return PredictorRegistry(
        [
            DominantsPredictor(),
            MutualDominancePredictor(),
            BinaryMaxPredictor(),
            BinaryPrecisionMaxPredictor(),
            MaxConfidencePredictor(),
            AverageConfidencePredictor(),
            CoveragePredictor(),
            FrobeniusNormPredictor(),
            LInfinityNormPredictor(),
            L1NormPredictor(),
            SpectralNormPredictor(),
            MatrixEntropyPredictor(),
            RowEntropyPredictor(),
            ConfidenceVariancePredictor(),
            DiversityPredictor(),
            PCAPredictor(component=1),
            PCAPredictor(component=2),
        ]
    )


def evaluate_predictors(
    matrix: MatchingMatrix, registry: PredictorRegistry | None = None
) -> Mapping[str, float]:
    """Evaluate the default (or a custom) predictor registry on a matrix."""
    registry = registry or default_registry()
    return registry.evaluate(matrix)

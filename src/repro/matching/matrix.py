"""The matching matrix ``M`` (Section II-A1).

A matcher's output is conceptualised as a matrix ``M`` whose entry
``M[i, j]`` (a real number in [0, 1]) represents the degree of alignment
between the ``i``-th element of the source and the ``j``-th element of the
target.  The match ``sigma`` is the set of non-zero entries.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.matching.schema import SchemaPair


class MatchingMatrix:
    """A dense, numpy-backed matching matrix with entries in ``[0, 1]``.

    Parameters
    ----------
    values:
        A 2-D array-like of confidences.  Values are validated to the unit
        interval.
    pair:
        The schema pair this matrix refers to (optional; when given, the
        matrix shape must agree with the pair's shape).
    """

    def __init__(self, values: np.ndarray, pair: Optional[SchemaPair] = None) -> None:
        array = np.asarray(values, dtype=float)
        if array.ndim != 2:
            raise ValueError(f"matching matrix must be 2-D, got shape {array.shape}")
        if array.size and (array.min() < 0.0 or array.max() > 1.0):
            raise ValueError("matching matrix entries must lie in [0, 1]")
        if pair is not None and array.shape != pair.shape:
            raise ValueError(
                f"matrix shape {array.shape} does not agree with pair shape {pair.shape}"
            )
        self._values = array
        self.pair = pair

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def zeros(cls, shape: tuple[int, int], pair: Optional[SchemaPair] = None) -> "MatchingMatrix":
        """An all-zero matrix of the given shape."""
        return cls(np.zeros(shape, dtype=float), pair=pair)

    @classmethod
    def for_pair(cls, pair: SchemaPair) -> "MatchingMatrix":
        """An all-zero matrix shaped for ``pair``."""
        return cls.zeros(pair.shape, pair=pair)

    @classmethod
    def from_entries(
        cls,
        shape: tuple[int, int],
        entries: Iterable[tuple[int, int, float]],
        pair: Optional[SchemaPair] = None,
    ) -> "MatchingMatrix":
        """Build a matrix from ``(i, j, confidence)`` triples."""
        matrix = np.zeros(shape, dtype=float)
        for i, j, confidence in entries:
            matrix[i, j] = confidence
        return cls(matrix, pair=pair)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def values(self) -> np.ndarray:
        """The underlying (read-only) array of confidences."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape  # type: ignore[return-value]

    @property
    def n_rows(self) -> int:
        return self._values.shape[0]

    @property
    def n_cols(self) -> int:
        return self._values.shape[1]

    def __getitem__(self, index: tuple[int, int]) -> float:
        return float(self._values[index])

    def nonzero_entries(self) -> set[tuple[int, int]]:
        """The match ``sigma``: index pairs with a non-zero confidence."""
        rows, cols = np.nonzero(self._values)
        return set(zip(rows.tolist(), cols.tolist()))

    def iter_nonzero(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(i, j, confidence)`` for non-zero entries."""
        rows, cols = np.nonzero(self._values)
        for i, j in zip(rows.tolist(), cols.tolist()):
            yield i, j, float(self._values[i, j])

    @property
    def n_nonzero(self) -> int:
        return int(np.count_nonzero(self._values))

    @property
    def density(self) -> float:
        """Fraction of non-zero entries."""
        if self._values.size == 0:
            return 0.0
        return self.n_nonzero / self._values.size

    def mean_confidence(self) -> float:
        """Average confidence over the non-zero entries (0.0 for an empty match)."""
        nonzero = self._values[self._values > 0]
        if nonzero.size == 0:
            return 0.0
        return float(nonzero.mean())

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def with_entry(self, i: int, j: int, confidence: float) -> "MatchingMatrix":
        """A copy of the matrix with entry ``(i, j)`` set to ``confidence``."""
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence {confidence} outside [0, 1]")
        new_values = self._values.copy()
        new_values[i, j] = confidence
        return MatchingMatrix(new_values, pair=self.pair)

    def binarize(self, threshold: float = 0.0) -> "MatchingMatrix":
        """A 0/1 matrix: entries strictly above ``threshold`` become 1."""
        return MatchingMatrix((self._values > threshold).astype(float), pair=self.pair)

    def apply_threshold(self, threshold: float) -> "MatchingMatrix":
        """Zero out entries at or below ``threshold``, keeping confidences."""
        new_values = np.where(self._values > threshold, self._values, 0.0)
        return MatchingMatrix(new_values, pair=self.pair)

    def top_1_per_row(self) -> "MatchingMatrix":
        """Keep only the maximal entry per row (ties keep the first).

        Vectorized whole-matrix argmax; bitwise-identical to a row-by-row
        loop — the kept values are the same array elements, and argmax
        shares the loop's first-tie rule.
        """
        new_values = np.zeros_like(self._values)
        if self._values.shape[0] and self._values.shape[1]:
            row_max = self._values.max(axis=1)
            best_col = np.argmax(self._values, axis=1)
            keep = row_max > 0
            new_values[np.flatnonzero(keep), best_col[keep]] = row_max[keep]
        return MatchingMatrix(new_values, pair=self.pair)

    def copy(self) -> "MatchingMatrix":
        return MatchingMatrix(self._values.copy(), pair=self.pair)

    def to_array(self) -> np.ndarray:
        """A writable copy of the confidences."""
        return self._values.copy()

    # ------------------------------------------------------------------ #
    # Dunder
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.allclose(self._values, other._values))

    def __repr__(self) -> str:
        return (
            f"MatchingMatrix(shape={self.shape}, nonzero={self.n_nonzero}, "
            f"mean_conf={self.mean_confidence():.3f})"
        )

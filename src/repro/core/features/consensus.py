"""Consensuality model: how much the training population agrees on each pair.

The paper's correlation features use two consistency dimensions, temporal
and consensual; the consensual part, ``pi_i``, counts how many training
matchers included the decision's element pair in their final matching
matrix.  The model is fitted on training matchers only (test matchers never
contribute), exactly as in Section III-B.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from repro.matching.history import DecisionHistory
from repro.matching.matcher import HumanMatcher


class ConsensusModel:
    """Per-pair selection counts over a training population."""

    def __init__(self) -> None:
        self._counts: dict[tuple[int, int], int] = {}
        self._n_matchers: int = 0
        self._lookup: Optional[tuple[int, int, np.ndarray, np.ndarray]] = None
        self._fingerprint: Optional[str] = None

    @property
    def is_fitted(self) -> bool:
        return self._n_matchers > 0

    @property
    def n_matchers(self) -> int:
        return self._n_matchers

    def fit(self, matchers: Sequence[HumanMatcher]) -> "ConsensusModel":
        """Count, per pair, how many matchers selected it in their final matrix."""
        self._counts = {}
        self._n_matchers = len(matchers)
        self._lookup = None
        self._fingerprint = None
        for matcher in matchers:
            for pair in matcher.matrix().nonzero_entries():
                self._counts[pair] = self._counts.get(pair, 0) + 1
        return self

    def count(self, pair: tuple[int, int]) -> int:
        """Raw number of training matchers that selected ``pair``."""
        return self._counts.get(pair, 0)

    def agreement(self, pair: tuple[int, int]) -> float:
        """Selection count normalised by the population size (0 when unfitted)."""
        if self._n_matchers == 0:
            return 0.0
        return self._counts.get(pair, 0) / self._n_matchers

    def agreements(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """:meth:`agreement` of each pair ``(rows[i], cols[i])``, as one array.

        Pairs outside the fitted counts map to 0.  Each value is an int64
        count over ``n_matchers`` -- a true division of integers below
        2**53, so it is bitwise equal to the scalar ``int / int``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self._n_matchers == 0:
            return np.zeros(rows.shape)
        if self._lookup is None:
            pairs = sorted(self._counts)
            table = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            height, width = table.max(axis=0, initial=-1) + 1
            # Row-major keys of the sorted pairs are sorted; every key is
            # below height * width, the cells of the fitted matrices' span.
            keys = table[:, 0] * width + table[:, 1]
            counts = np.array([self._counts[pair] for pair in pairs], dtype=np.int64)
            self._lookup = (height, width, keys, counts)
        height, width, keys, counts = self._lookup
        found = np.zeros(rows.shape, dtype=np.int64)
        inside = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
        query = rows[inside] * width + cols[inside]
        position = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        found[inside] = np.where(keys[position] == query, counts[position], 0)
        return found / self._n_matchers

    def history_agreement(self, history: DecisionHistory) -> list[float]:
        """Per-decision agreement values, in sequence order."""
        columns = history.columns()
        return self.agreements(columns[:, 0], columns[:, 1]).tolist()

    def fingerprint(self) -> str:
        """A stable digest of the fitted state (for feature-block cache keys).

        Memoised: every block lookup of a behavioural extractor asks for
        it, and :meth:`fit` clears the memo with the state it digests.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(str(self._n_matchers).encode())
            for pair, count in sorted(self._counts.items()):
                digest.update(f"{pair[0]},{pair[1]}:{count};".encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        return f"ConsensusModel(n_matchers={self._n_matchers}, pairs={len(self._counts)})"

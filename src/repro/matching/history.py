"""The decision history ``H`` (Section II-A2) and its matrix projection (Eq. 1).

Human matchers perform sequential decisions and may revisit a pair, changing
its confidence.  A history is an ordered sequence of
``<(a_i, b_j), confidence, time>`` triplets; the induced matching matrix
assigns each pair its *latest* confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.matching.matrix import MatchingMatrix
from repro.matching.schema import SchemaPair


@dataclass(frozen=True)
class Decision:
    """A single matching decision.

    Attributes
    ----------
    row, col:
        The element pair ``(a_i, b_j)`` the decision refers to.
    confidence:
        The reported confidence ``c`` in [0, 1].  A confidence of 0 encodes
        an explicit "does not match" decision.
    timestamp:
        Wall-clock time ``t`` (seconds since the start of the session).
    """

    row: int
    col: int
    confidence: float
    timestamp: float

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise ValueError("decision indices must be non-negative")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.row, self.col)


class DecisionHistory:
    """An ordered decision history ``H = <h_1, ..., h_T>``.

    Decisions are kept sorted by timestamp (stable for equal timestamps), so
    the sequence order reflects the total order the paper assumes.
    """

    def __init__(
        self,
        decisions: Iterable[Decision] = (),
        shape: Optional[tuple[int, int]] = None,
        pair: Optional[SchemaPair] = None,
    ) -> None:
        self._decisions: list[Decision] = sorted(decisions, key=lambda d: d.timestamp)
        self.pair = pair
        if shape is None and pair is not None:
            shape = pair.shape
        if shape is None:
            shape = self._infer_shape()
        self.shape = shape
        self._validate_shape()
        self._columns: Optional[np.ndarray] = None

    def _infer_shape(self) -> tuple[int, int]:
        if not self._decisions:
            return (0, 0)
        max_row = max(d.row for d in self._decisions)
        max_col = max(d.col for d in self._decisions)
        return (max_row + 1, max_col + 1)

    def _validate_shape(self) -> None:
        rows, cols = self.shape
        for decision in self._decisions:
            if decision.row >= rows or decision.col >= cols:
                raise ValueError(
                    f"decision on pair {decision.pair} outside matrix of shape {self.shape}"
                )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def decisions(self) -> tuple[Decision, ...]:
        return tuple(self._decisions)

    def __len__(self) -> int:
        return len(self._decisions)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self._decisions)

    def __getitem__(self, index: int) -> Decision:
        return self._decisions[index]

    @property
    def is_empty(self) -> bool:
        return not self._decisions

    def columns(self) -> np.ndarray:
        """A read-only ``(k, 4)`` float64 array of ``(row, col, confidence, timestamp)``.

        One row per decision, in sequence order.  Built once and memoised:
        histories are immutable (every transformation returns a new one).
        """
        if self._columns is None:
            columns = np.array(
                [(d.row, d.col, d.confidence, d.timestamp) for d in self._decisions],
                dtype=np.float64,
            ).reshape(len(self._decisions), 4)
            columns.flags.writeable = False
            self._columns = columns
        return self._columns

    def confidences(self) -> np.ndarray:
        """Confidence of each decision, in sequence order."""
        return self.columns()[:, 2].copy()

    def timestamps(self) -> np.ndarray:
        """Timestamp of each decision, in sequence order."""
        return self.columns()[:, 3].copy()

    def inter_decision_times(self) -> np.ndarray:
        """Time spent until reaching each decision: ``h_k.t - h_{k-1}.t``.

        The first decision's elapsed time is measured from time 0.
        """
        times = self.timestamps()
        if times.size == 0:
            return times
        previous = np.concatenate(([0.0], times[:-1]))
        return times - previous

    def decided_pairs(self) -> list[tuple[int, int]]:
        """Distinct pairs in order of *first* decision."""
        seen: dict[tuple[int, int], None] = {}
        for decision in self._decisions:
            seen.setdefault(decision.pair, None)
        return list(seen)

    def latest_decisions(self) -> dict[tuple[int, int], Decision]:
        """The latest decision per pair (the semantics of Eq. 1)."""
        latest: dict[tuple[int, int], Decision] = {}
        for decision in self._decisions:
            latest[decision.pair] = decision
        return latest

    def revisited_pairs(self) -> list[tuple[int, int]]:
        """Pairs decided more than once (mind changes / revisits)."""
        counts: dict[tuple[int, int], int] = {}
        for decision in self._decisions:
            counts[decision.pair] = counts.get(decision.pair, 0) + 1
        return [pair for pair, count in counts.items() if count > 1]

    def n_mind_changes(self) -> int:
        """Number of decisions that revise an earlier decision on the same pair."""
        seen: set[tuple[int, int]] = set()
        changes = 0
        for decision in self._decisions:
            if decision.pair in seen:
                changes += 1
            else:
                seen.add(decision.pair)
        return changes

    def duration(self) -> float:
        """Total elapsed time between the first and the last decision."""
        if len(self._decisions) < 2:
            return 0.0
        return self._decisions[-1].timestamp - self._decisions[0].timestamp

    def mean_confidence(self) -> float:
        """``H.c``: average confidence reported across all decisions."""
        if not self._decisions:
            return 0.0
        return float(self.confidences().mean())

    # ------------------------------------------------------------------ #
    # Projections / slicing
    # ------------------------------------------------------------------ #

    def to_matrix(self) -> MatchingMatrix:
        """Project the history to a matching matrix (Eq. 1).

        Each pair receives the confidence of its *latest* decision; pairs
        never decided stay at 0.
        """
        matrix = np.zeros(self.shape, dtype=float)
        for pair, decision in self.latest_decisions().items():
            matrix[pair] = decision.confidence
        return MatchingMatrix(matrix, pair=self.pair)

    def prefix(self, n_decisions: int) -> "DecisionHistory":
        """The history truncated to its first ``n_decisions`` decisions."""
        if n_decisions < 0:
            raise ValueError("n_decisions must be non-negative")
        return DecisionHistory(self._decisions[:n_decisions], shape=self.shape, pair=self.pair)

    def window(self, start: int, length: int) -> "DecisionHistory":
        """A contiguous sub-history of ``length`` decisions starting at ``start``.

        Used to build the sub-matchers of Section IV-B1 (``MExI_50``/``MExI_70``).
        """
        if start < 0 or length < 0:
            raise ValueError("start and length must be non-negative")
        return DecisionHistory(
            self._decisions[start : start + length], shape=self.shape, pair=self.pair
        )

    def with_decision(self, decision: Decision) -> "DecisionHistory":
        """A new history with ``decision`` appended."""
        return DecisionHistory(
            list(self._decisions) + [decision], shape=self.shape, pair=self.pair
        )

    def drop_first(self, n_decisions: int) -> "DecisionHistory":
        """A history with the first ``n_decisions`` decisions removed (warm-up)."""
        if n_decisions < 0:
            raise ValueError("n_decisions must be non-negative")
        return DecisionHistory(self._decisions[n_decisions:], shape=self.shape, pair=self.pair)

    def filter(self, keep: Sequence[bool]) -> "DecisionHistory":
        """Keep only the decisions whose flag in ``keep`` is true."""
        if len(keep) != len(self._decisions):
            raise ValueError("keep mask length must equal the number of decisions")
        kept = [d for d, flag in zip(self._decisions, keep) if flag]
        return DecisionHistory(kept, shape=self.shape, pair=self.pair)

    def __repr__(self) -> str:
        return (
            f"DecisionHistory(decisions={len(self)}, shape={self.shape}, "
            f"duration={self.duration():.1f}s)"
        )


def stack_matrices(histories: Sequence[DecisionHistory], shape: tuple[int, int]) -> np.ndarray:
    """The ``(k, rows, cols)`` stack of the histories' Eq. 1 matrices.

    Bitwise equal to stacking each ``history.to_matrix().values``: a pair
    holds the confidence of its latest decision (the last in sequence
    order) and pairs never decided stay 0.  Every history must have
    ``shape``.  One pass over all the histories' decision columns
    replaces a projection per matrix.
    """
    rows, cols = shape
    stack = np.zeros((len(histories), rows, cols))
    columns = [history.columns() for history in histories]
    decided = np.concatenate(columns) if columns else np.zeros((0, 4))
    owner = np.repeat(np.arange(len(columns)), [len(block) for block in columns])
    cells = (owner * rows + decided[:, 0].astype(np.intp)) * cols + decided[:, 1].astype(np.intp)
    # Each cell's last decision wins: its first occurrence counting from the end.
    _, from_end = np.unique(cells[::-1], return_index=True)
    latest = cells.size - 1 - from_end
    stack.reshape(-1)[cells[latest]] = decided[latest, 2]
    return stack

"""Loop oracles for the matching layer (``repro.matching``)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.matching.events import N_EVENT_TYPES, EventArray, bin_position
from repro.matching.matrix import MatchingMatrix


def heat_map_counts_loop(
    store: EventArray,
    screen: tuple[int, int],
    shape: tuple[int, int],
    code: Optional[int] = None,
) -> np.ndarray:
    """Event-by-event heat-map aggregation."""
    rows, cols = shape
    counts = np.zeros((rows, cols), dtype=float)
    for index in range(len(store)):
        if code is not None and store.codes[index] != code:
            continue
        row, col = bin_position(store.x[index], store.y[index], screen, shape)
        counts[row, col] += 1.0
    return counts


def counts_by_code_loop(store: EventArray) -> np.ndarray:
    """Event-by-event per-type counting."""
    counts = np.zeros(N_EVENT_TYPES, dtype=np.int64)
    for code in store.codes.tolist():
        counts[code] += 1
    return counts


def downscale_loop(counts: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Per-target-cell sum pooling of a heat map."""
    target_rows, target_cols = shape
    rows, cols = counts.shape
    row_edges = np.linspace(0, rows, target_rows + 1).astype(int)
    col_edges = np.linspace(0, cols, target_cols + 1).astype(int)
    pooled = np.zeros(shape, dtype=float)
    for i in range(target_rows):
        for j in range(target_cols):
            block = counts[row_edges[i] : row_edges[i + 1], col_edges[j] : col_edges[j + 1]]
            pooled[i, j] = block.sum()
    return pooled


def top_1_per_row_loop(matrix: MatchingMatrix) -> MatchingMatrix:
    """Row-by-row top-1 filter (ties keep the first)."""
    values = matrix.values
    new_values = np.zeros_like(values)
    for i in range(matrix.n_rows):
        row = values[i]
        if row.max() > 0:
            j = int(np.argmax(row))
            new_values[i, j] = row[j]
    return MatchingMatrix(new_values, pair=matrix.pair)

"""Ragged populations: per-matcher columns concatenated end to end.

The Phi_Beh and Phi_Mou kernels concatenate one column per matcher (its
events or its decisions) into a single array for the whole population.
Integer-valued aggregates (counts, heat maps, durations) are then one pass
over the concatenation, exact in any order.  Float reductions are not:
each matcher's mean or sum must see numpy's 1-D pairwise summation over
exactly its own values.  :func:`equal_length_blocks` gathers the matchers
that reduce over the same number of values into one C-contiguous
``(m, k)`` block; reducing it along its last axis gives each row the same
pairwise tree as the 1-D vector, so the block results are bitwise equal to
per-matcher calls.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def offsets(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, owner)`` of a concatenation: each matcher's first position
    and, for every position, the matcher it belongs to."""
    starts = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(lengths.size), lengths)
    return starts, owner


def equal_length_blocks(lengths: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The matchers of each distinct positive length, with their gather index.

    Yields ``(members, index)`` per length ``k``, ascending: ``members`` are
    the positions of the matchers with ``k`` values and ``index`` is the
    ``(m, k)`` array of those values' positions in the concatenation of
    all matchers' values, in matcher order.  ``values[index]`` is the block
    to reduce along ``axis=1``.  ``lengths`` has one entry per matcher of a
    non-empty population.
    """
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    bounds = np.flatnonzero(np.diff(lengths[order])) + 1
    for members in np.split(order, bounds):
        k = int(lengths[members[0]])
        if k:
            yield members, starts[members, None] + np.arange(k)


def block_stats(block: np.ndarray) -> np.ndarray:
    """``(mean, std, min, max)`` of each row of an ``(m, k)`` block, ``k >= 1``."""
    return np.column_stack(
        [block.mean(axis=1), block.std(axis=1), block.min(axis=1), block.max(axis=1)]
    )

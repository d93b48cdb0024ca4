"""Loop oracles for the statistics layer (``repro.stats``)."""

from __future__ import annotations

import numpy as np


def concordant_discordant(x: np.ndarray, y: np.ndarray) -> tuple[int, int]:
    """Count concordant and discordant pairs row by row (ties ignored)."""
    n = x.size
    concordant = 0
    discordant = 0
    for i in range(n):
        dx = x[i + 1 :] - x[i]
        dy = y[i + 1 :] - y[i]
        product = dx * dy
        concordant += int(np.count_nonzero(product > 0))
        discordant += int(np.count_nonzero(product < 0))
    return concordant, discordant


def permutation_p_value(
    x: np.ndarray, y: np.ndarray, gamma: float, n_permutations: int, random_state: int
) -> float:
    """The small-sample permutation p-value, one permutation at a time."""
    rng = np.random.default_rng(random_state)
    extreme = 0
    for _ in range(n_permutations):
        permuted = rng.permutation(y)
        c, d = concordant_discordant(x, permuted)
        t = c + d
        permuted_gamma = 0.0 if t == 0 else (c - d) / t
        if abs(permuted_gamma) >= abs(gamma) - 1e-12:
            extreme += 1
    return (extreme + 1) / (n_permutations + 1)

"""Goodman and Kruskal's gamma rank correlation (used as *resolution*, Eq. 4).

Resolution measures whether a matcher is more confident when correct than
when incorrect: gamma is computed between the reported confidences and the
0/1 correctness of the corresponding decisions.  Significance is assessed
with the asymptotic normal approximation on the gamma statistic, falling
back to a permutation test for very small samples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.stats.normal import ndtr


def _content_seed(x: np.ndarray, y: np.ndarray) -> int:
    """A deterministic permutation seed derived from the data itself.

    The permutation p-value is a statistic of ``(x, y)``, so its Monte-Carlo
    seed must be a function of the data: seeding from OS entropy would make
    expert labels flip between runs for borderline samples, and seeding from
    a constant would correlate the draws across different matchers.  A
    content digest gives every distinct input its own fixed stream, making
    repeated evaluations reproducible across processes, call order and
    thread schedules.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(np.ascontiguousarray(x).tobytes())
    digest.update(np.ascontiguousarray(y).tobytes())
    return int.from_bytes(digest.digest(), "little")


@dataclass(frozen=True)
class GammaResult:
    """The gamma statistic together with its significance."""

    gamma: float
    p_value: float
    concordant: int
    discordant: int

    @property
    def is_significant(self) -> bool:
        """Significance at the paper's 0.05 level."""
        return self.p_value < 0.05


def _pair_counts(x: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concordant and discordant pair counts of ``x`` against each row of ``ys``.

    Pair ``i < j`` is concordant when ``(x[j] - x[i]) * (y[j] - y[i])`` is
    positive and discordant when it is negative (ties count as neither);
    every row is classified in one broadcast over the ``n (n - 1) / 2``
    pairs, so memory grows with ``n**2`` (a matcher's decisions on one
    task number in the tens to hundreds).
    """
    i, j = np.triu_indices(x.size, 1)
    product = (x[j] - x[i]) * (ys[:, j] - ys[:, i])
    return np.count_nonzero(product > 0, axis=1), np.count_nonzero(product < 0, axis=1)


def goodman_kruskal_gamma(
    x: Sequence[float],
    y: Sequence[float],
    n_permutations: int = 200,
    random_state: Optional[int] = None,
) -> GammaResult:
    """Compute Goodman-Kruskal gamma between ``x`` and ``y`` with a p-value.

    Parameters
    ----------
    x, y:
        Paired observations (e.g. confidences and 0/1 correctness).
    n_permutations:
        Number of label permutations used for the small-sample p-value.
    random_state:
        Seed for the permutation test.  ``None`` (default) derives the seed
        from the data content, so identical inputs always produce identical
        p-values (required for reproducible expert labels).

    Returns
    -------
    GammaResult
        gamma in [-1, 1]; gamma is 0 (p-value 1.0) when no untied pairs exist.
    """
    x_array = np.asarray(x, dtype=float)
    y_array = np.asarray(y, dtype=float)
    if x_array.shape != y_array.shape:
        raise ValueError("x and y must have the same length")
    if x_array.ndim != 1:
        raise ValueError("x and y must be 1-D sequences")

    concordant, discordant = (int(count[0]) for count in _pair_counts(x_array, y_array[None]))
    total = concordant + discordant
    if total == 0:
        return GammaResult(gamma=0.0, p_value=1.0, concordant=0, discordant=0)

    gamma = (concordant - discordant) / total

    n = x_array.size
    if n >= 10:
        # Asymptotic standard error under the null (Goodman & Kruskal 1963).
        se = np.sqrt(total / (n * (1 - gamma**2))) if abs(gamma) < 1.0 else np.inf
        if np.isfinite(se) and se > 0:
            z = float(gamma * se)
            p_value = 2.0 * ndtr(-abs(z))
        else:
            p_value = 0.0 if n > 2 else 1.0
    else:
        # Permutation test for small samples.
        if random_state is None:
            random_state = _content_seed(x_array, y_array)
        rng = np.random.default_rng(random_state)
        permuted = np.array([rng.permutation(y_array) for _ in range(n_permutations)])
        c, d = _pair_counts(x_array, permuted.reshape(n_permutations, n))
        t = c + d
        permuted_gamma = np.divide(c - d, t, out=np.zeros(n_permutations), where=t > 0)
        extreme = int(np.count_nonzero(np.abs(permuted_gamma) >= abs(gamma) - 1e-12))
        p_value = (extreme + 1) / (n_permutations + 1)

    return GammaResult(
        gamma=float(gamma),
        p_value=float(min(max(p_value, 0.0), 1.0)),
        concordant=concordant,
        discordant=discordant,
    )

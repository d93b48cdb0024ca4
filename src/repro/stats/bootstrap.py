"""Two-sample bootstrap hypothesis test.

The paper marks statistically significant improvements of MExI over the top
performing baseline with a two-sample bootstrap hypothesis test (Section
IV-D).  The test resamples both samples under the pooled null hypothesis and
compares the observed difference in means against the bootstrap distribution.

The resample loop is vectorized: all resample indices are pre-drawn from the
seed stream as two ``(n_bootstrap, n)`` matrices and the bootstrap means are
computed in whole-matrix NumPy operations.  Above a size threshold, the
pre-drawn matrices are split row-wise across :class:`repro.runtime.TaskRunner`
workers; row-wise means are independent of the chunking, so every backend
and worker count produces bitwise-identical p-values (serial is the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.runtime import RuntimeSpec, resolve_runner

#: Minimum total work — resample-matrix elements, ``n_bootstrap * (|a| + |b|)``
#: — before a non-serial runtime is worth the fan-out overhead; below it the
#: vectorized serial path runs regardless (it finishes typical fold-score
#: tests in well under a millisecond, far cheaper than starting a pool).
PARALLEL_RESAMPLE_THRESHOLD = 1_000_000

#: Row-block budget (index-matrix elements) for the serial matrix path:
#: draws and gathers happen at most this many elements at a time, bounding
#: memory at ~tens of MB for arbitrarily large samples.  Block boundaries
#: do not affect results — consecutive same-bound ``integers`` draws
#: concatenate to the one-shot stream, and row-wise means are independent
#: of the blocking — so this is a memory knob, not part of the p-value.
MATRIX_BLOCK_ELEMENTS = 1 << 23


@dataclass(frozen=True)
class BootstrapTestResult:
    """Outcome of a two-sample bootstrap test on the difference of means."""

    observed_difference: float
    p_value: float
    n_bootstrap: int

    @property
    def is_significant(self) -> bool:
        """Significance at the paper's 0.05 level."""
        return self.p_value < 0.05


def _count_extreme_task(task, shared) -> int:
    """Extreme-count of one chunk of pre-drawn resample index matrices."""
    a_null, b_null, observed, alternative = shared
    index_a, index_b = task
    differences = a_null[index_a].mean(axis=1) - b_null[index_b].mean(axis=1)
    return _count_extreme(differences, observed, alternative)


def _count_extreme(differences: np.ndarray, observed: float, alternative: str) -> int:
    if alternative == "greater":
        return int(np.count_nonzero(differences >= observed - 1e-12))
    if alternative == "less":
        return int(np.count_nonzero(differences <= observed + 1e-12))
    return int(np.count_nonzero(np.abs(differences) >= abs(observed) - 1e-12))


def _resample_means_blocked(
    rng: np.random.Generator, values: np.ndarray, n_bootstrap: int
) -> np.ndarray:
    """Bootstrap means of ``values`` with memory-bounded block-wise draws.

    Identical to drawing one ``(n_bootstrap, n)`` index matrix and taking
    row means, but only one block of indices is alive at a time.
    """
    block_rows = max(1, MATRIX_BLOCK_ELEMENTS // max(1, values.size))
    means = np.empty(n_bootstrap)
    for start in range(0, n_bootstrap, block_rows):
        stop = min(start + block_rows, n_bootstrap)
        indices = rng.integers(0, values.size, size=(stop - start, values.size))
        means[start:stop] = values[indices].mean(axis=1)
    return means


def two_sample_bootstrap_test(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    n_bootstrap: int = 2000,
    alternative: str = "greater",
    random_state: Optional[int] = None,
    runtime: RuntimeSpec = None,
    parallel_threshold: int = PARALLEL_RESAMPLE_THRESHOLD,
) -> BootstrapTestResult:
    """Test whether ``sample_a`` has a larger mean than ``sample_b``.

    Parameters
    ----------
    sample_a, sample_b:
        Per-fold (or per-matcher) scores of the two methods being compared.
    n_bootstrap:
        Number of bootstrap resamples.
    alternative:
        ``"greater"`` (one-sided, a > b), ``"less"`` or ``"two-sided"``.
    random_state:
        Seed for reproducibility.
    runtime:
        Runtime selection (:class:`~repro.runtime.TaskRunner`, spec string
        or ``None`` for the ``REPRO_RUNTIME`` default).  The test
        parallelises only when the total work
        (``n_bootstrap * (len(a) + len(b))`` matrix elements) reaches
        ``parallel_threshold``; p-values are bitwise identical to the
        serial path on every backend and worker count.
    parallel_threshold:
        Minimum resample-matrix element count before a non-serial runtime
        fans out.
    """
    if alternative not in {"greater", "less", "two-sided"}:
        raise ValueError(f"unknown alternative {alternative!r}")
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")

    observed = float(a.mean() - b.mean())

    # Shift both samples to the pooled mean so the null (equal means) holds.
    pooled_mean = float(np.concatenate([a, b]).mean())
    a_null = a - a.mean() + pooled_mean
    b_null = b - b.mean() + pooled_mean

    rng = np.random.default_rng(random_state)
    runner = resolve_runner(runtime)
    total_elements = n_bootstrap * (a.size + b.size)
    if runner.backend == "serial" or total_elements < parallel_threshold:
        # Block-wise draws bound memory for arbitrarily large samples;
        # the stream and the row means match the one-shot matrices
        # bitwise, so serial stays the oracle for the parallel path.
        a_means = _resample_means_blocked(rng, a_null, n_bootstrap)
        b_means = _resample_means_blocked(rng, b_null, n_bootstrap)
        extreme = _count_extreme(a_means - b_means, observed, alternative)
    else:
        # Pre-drawn randomness: the full index matrices come out of the
        # seed stream (in the serial path's a-then-b order) before any
        # fan-out, so workers never touch the generator.  This trades
        # the serial path's bounded memory for cores.
        index_a = rng.integers(0, a.size, size=(n_bootstrap, a.size))
        index_b = rng.integers(0, b.size, size=(n_bootstrap, b.size))
        shared = (a_null, b_null, observed, alternative)
        # array_split returns row-range views — no second copy of the
        # matrices — and the chunking cannot affect the counts.
        tasks = [
            (rows_a, rows_b)
            for rows_a, rows_b in zip(
                np.array_split(index_a, runner.max_workers),
                np.array_split(index_b, runner.max_workers),
            )
            if rows_a.size
        ]
        extreme = sum(runner.map(_count_extreme_task, tasks, context=shared))

    p_value = (extreme + 1) / (n_bootstrap + 1)
    return BootstrapTestResult(
        observed_difference=observed,
        p_value=float(p_value),
        n_bootstrap=n_bootstrap,
    )

"""The kernel set the vectorized hot paths run on, for run provenance.

Every numeric kernel (im2col convolution, fused-gate LSTM stepping,
bincount heat maps, the matching predictors stacked over ``(n, r, c)``
same-shape matrices with one shared SVD, vectorized split search) has
exactly one production implementation.  The scalar and per-matrix
reference implementations they are asserted against live in the test
suite (``tests/oracles``).
"""

from __future__ import annotations


def active_kernels() -> str:
    """The kernel implementation set: always ``"fast"``."""
    return "fast"

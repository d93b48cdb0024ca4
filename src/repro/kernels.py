"""The kernel set the vectorized hot paths run on, for run provenance.

Every numeric kernel (im2col convolution, fused-gate LSTM stepping,
bincount heat maps, masked structural predictors, vectorized split search)
has exactly one production implementation.  The scalar reference loops
they are asserted against live in the test suite (``tests/oracles``).
"""

from __future__ import annotations


def active_kernels() -> str:
    """The kernel implementation set: always ``"fast"``."""
    return "fast"

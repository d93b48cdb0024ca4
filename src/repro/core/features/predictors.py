"""Phi_LRSM(H): matching-predictor features over the projected matching matrix.

The Precision and Thoroughness feature groups of Section III-A: every
predictor in :mod:`repro.predictors` is evaluated on the matrix induced by
the matcher's decision history.

The batch path groups the matchers by matrix shape (first-seen order),
projects each group in chunks of at most :data:`STACK_CELLS` cells into
one :class:`~repro.predictors.MatrixStack` (built from the histories'
decision columns in one pass by
:func:`~repro.matching.history.stack_matrices`), scores every predictor
on the stack in one call, and writes the rows back in input order.  The chunk
bound keeps peak memory flat on populations of large matrices; it is a
constant because it changes no result, only how many stacks a batch
takes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.features.base import FeatureBlock, FeatureExtractor
from repro.matching.history import stack_matrices
from repro.matching.matcher import HumanMatcher
from repro.predictors import MatrixStack, PredictorRegistry, default_registry

#: Matrix entries (matrices x rows x columns) per stacked chunk.
STACK_CELLS = 1 << 16


class LRSMFeatures(FeatureExtractor):
    """Matching predictors as features (the LRSM feature family)."""

    set_name = "lrsm"
    requires_fitting = False

    def __init__(self, registry: Optional[PredictorRegistry] = None) -> None:
        self.registry = registry or default_registry()

    def extract_batch(self, matchers: Sequence[HumanMatcher]) -> FeatureBlock:
        out = np.zeros((len(matchers), len(self.registry)))
        by_shape: dict[tuple[int, int], list[int]] = {}
        for index, matcher in enumerate(matchers):
            by_shape.setdefault(tuple(matcher.history.shape), []).append(index)
        for (n_rows, n_cols), indices in by_shape.items():
            step = max(1, STACK_CELLS // max(1, n_rows * n_cols))
            for start in range(0, len(indices), step):
                chunk = indices[start : start + step]
                histories = [matchers[i].history for i in chunk]
                stack = MatrixStack(stack_matrices(histories, (n_rows, n_cols)))
                out[chunk] = self.registry.batch(stack)
        return FeatureBlock(self.feature_names(), out)

    def feature_names(self) -> list[str]:
        """The names this extractor produces, in registry order."""
        return [self._prefixed(name) for name in self.registry.names()]

    def config_fingerprint(self) -> str:
        return f"LRSMFeatures:{','.join(self.registry.names())}"

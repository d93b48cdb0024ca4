"""Matching predictors substrate (Sagi & Gal; the LRSM feature family).

A matching predictor is a function that quantifies the quality of a match,
given only the matching matrix (no reference match).  The paper uses
precision-oriented predictors for the Precision features and
uncertainty/diversity-oriented predictors (matrix norms, entropy) for the
Thoroughness features, following the LRSM work (Gal, Roitman & Shraga).

The public surface is a registry of named predictors plus convenience
helpers that evaluate families of predictors on a matrix.  Every
predictor is implemented once, over a :class:`MatrixStack` of same-shape
matrices; a single matrix is a one-matrix stack.
"""

from repro.predictors.base import (
    MatchingPredictor,
    MatrixStack,
    PredictorRegistry,
    default_registry,
    evaluate_predictors,
)
from repro.predictors.structural import (
    DominantsPredictor,
    BinaryMaxPredictor,
    BinaryPrecisionMaxPredictor,
    MaxConfidencePredictor,
    AverageConfidencePredictor,
    CoveragePredictor,
    MutualDominancePredictor,
)
from repro.predictors.norms import (
    FrobeniusNormPredictor,
    LInfinityNormPredictor,
    L1NormPredictor,
    SpectralNormPredictor,
)
from repro.predictors.entropy import (
    MatrixEntropyPredictor,
    RowEntropyPredictor,
    ConfidenceVariancePredictor,
    DiversityPredictor,
)
from repro.predictors.pca_predictors import PCAPredictor

__all__ = [
    "MatchingPredictor",
    "MatrixStack",
    "PredictorRegistry",
    "default_registry",
    "evaluate_predictors",
    "DominantsPredictor",
    "BinaryMaxPredictor",
    "BinaryPrecisionMaxPredictor",
    "MaxConfidencePredictor",
    "AverageConfidencePredictor",
    "CoveragePredictor",
    "MutualDominancePredictor",
    "FrobeniusNormPredictor",
    "LInfinityNormPredictor",
    "L1NormPredictor",
    "SpectralNormPredictor",
    "MatrixEntropyPredictor",
    "RowEntropyPredictor",
    "ConfidenceVariancePredictor",
    "DiversityPredictor",
    "PCAPredictor",
]

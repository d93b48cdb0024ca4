"""Feature preprocessing: standardisation."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml.base import BaseTransformer, _as_2d_float


class StandardScaler(BaseTransformer):
    """Standardise features to zero mean and unit variance.

    Constant features (zero variance) are left centred but unscaled, so the
    transform never divides by zero.
    """

    def __init__(self, with_mean: bool = True, with_std: bool = True) -> None:
        self.with_mean = with_mean
        self.with_std = with_std
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: Any, y: Any = None) -> "StandardScaler":
        array = _as_2d_float(X)
        self.mean_ = array.mean(axis=0) if self.with_mean else np.zeros(array.shape[1])
        if self.with_std:
            std = array.std(axis=0)
            std[std == 0] = 1.0
            self.scale_ = std
        else:
            self.scale_ = np.ones(array.shape[1])
        return self

    def transform(self, X: Any) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler has not been fitted yet")
        array = _as_2d_float(X)
        return (array - self.mean_) / self.scale_

    def inverse_transform(self, X: Any) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler has not been fitted yet")
        array = _as_2d_float(X)
        return array * self.scale_ + self.mean_

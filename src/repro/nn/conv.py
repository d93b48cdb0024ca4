"""Convolutional layers for the heat-map CNN (Phi_Spa).

Inputs are shaped ``(batch, height, width, channels)``.  The forward/backward
hot paths are vectorized:

* patch extraction (im2col) uses ``sliding_window_view`` stride tricks in
  place of the original double loop over output pixels, producing the exact
  same patch matrix — the subsequent matrix products are therefore
  **bitwise identical** to the loop implementation;
* the input-gradient scatter (col2im) accumulates one slice-add per kernel
  offset, iterated in descending offset order so every input cell receives
  its contributions in the same order as the original per-pixel loop —
  again bitwise identical;
* max pooling reduces and routes gradients in a reshaped
  ``(batch, out_h, p, out_w, p, channels)`` view.

The original loops live in ``tests/oracles/nn.py`` and are asserted
against in ``tests/nn/test_kernel_equivalence.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.layers import Layer


def extract_patches(x: np.ndarray, kernel_size: int) -> np.ndarray:
    """im2col via stride tricks: (batch, out_h, out_w, k*k*channels).

    Element-for-element identical to the per-output-pixel loop (the
    reshape copies the windows into the same row-major patch layout).
    """
    batch = x.shape[0]
    k = kernel_size
    # (batch, out_h, out_w, channels, k, k) -> (batch, out_h, out_w, k, k, C)
    windows = sliding_window_view(x, (k, k), axis=(1, 2))
    patches = windows.transpose(0, 1, 2, 4, 5, 3).reshape(
        batch, windows.shape[1], windows.shape[2], -1
    )
    if patches.dtype != np.float64:
        patches = patches.astype(np.float64)
    return patches


def scatter_patch_grads(
    d_patches: np.ndarray, input_shape: tuple[int, ...], kernel_size: int
) -> np.ndarray:
    """Vectorized col2im: one slice-add per kernel offset.

    An input cell ``(r, c)`` receives contributions from patches
    ``(i, j) = (r - di, c - dj)``; iterating the kernel offsets ``(di, dj)``
    in *descending* order adds those contributions in ascending ``(i, j)``
    order — exactly the order of the per-pixel loop — so the accumulated float
    sums are bitwise identical.
    """
    batch, height, width, channels = input_shape
    k = kernel_size
    out_h = height - k + 1
    out_w = width - k + 1
    blocks = d_patches.reshape(batch, out_h, out_w, k, k, channels)
    grad_input = np.zeros(input_shape)
    for di in range(k - 1, -1, -1):
        for dj in range(k - 1, -1, -1):
            grad_input[:, di : di + out_h, dj : dj + out_w, :] += blocks[:, :, :, di, dj, :]
    return grad_input


class Conv2D(Layer):
    """Valid-padding 2-D convolution with stride 1."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        rng = np.random.default_rng(seed)
        fan_in = kernel_size * kernel_size * in_channels
        fan_out = kernel_size * kernel_size * out_channels
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self.params = {
            "W": rng.uniform(
                -limit, limit, size=(kernel_size, kernel_size, in_channels, out_channels)
            ),
            "b": np.zeros(out_channels),
        }
        self.grads = {key: np.zeros_like(value) for key, value in self.params.items()}
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"Conv2D expects (batch, H, W, C), got shape {x.shape}")
        if x.shape[3] != self.in_channels:
            raise ValueError(
                f"Conv2D expected {self.in_channels} channels, got {x.shape[3]}"
            )
        if x.shape[1] < self.kernel_size or x.shape[2] < self.kernel_size:
            raise ValueError("input smaller than the convolution kernel")
        self._input = x
        patches = extract_patches(x, self.kernel_size)
        kernel = self.params["W"].reshape(-1, self.out_channels)
        output = patches @ kernel + self.params["b"]
        return output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._input is not None
        x = self._input
        batch, height, width, channels = x.shape
        k = self.kernel_size
        out_h = height - k + 1
        out_w = width - k + 1

        patches = extract_patches(x, k).reshape(-1, k * k * channels)
        grad_flat = grad.reshape(-1, self.out_channels)

        self.grads["W"] = (patches.T @ grad_flat).reshape(self.params["W"].shape)
        self.grads["b"] = grad_flat.sum(axis=0)

        kernel = self.params["W"].reshape(-1, self.out_channels)
        d_patches = (grad_flat @ kernel.T).reshape(batch, out_h, out_w, k * k * channels)
        return scatter_patch_grads(d_patches, x.shape, k)

    def output_dim(self, input_dim):
        if isinstance(input_dim, tuple) and len(input_dim) == 3:
            height, width, _ = input_dim
            k = self.kernel_size
            return (height - k + 1, width - k + 1, self.out_channels)
        return input_dim

    def config(self) -> dict:
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": self.kernel_size,
        }

    def __repr__(self) -> str:
        return (
            f"Conv2D(in={self.in_channels}, out={self.out_channels}, "
            f"kernel={self.kernel_size})"
        )


def maxpool_forward(x: np.ndarray, pool_size: int) -> np.ndarray:
    """Max over each ``pool_size`` window of an already-trimmed input."""
    p = pool_size
    batch, height, width, channels = x.shape
    return x.reshape(batch, height // p, p, width // p, p, channels).max(axis=(2, 4))


def maxpool_backward(
    x: np.ndarray, output: np.ndarray, grad: np.ndarray, pool_size: int
) -> np.ndarray:
    """Route ``grad`` to every max position of its window (ties all receive it).

    The mask is built in the reshaped space instead of via two
    materialised ``np.repeat``'s.
    """
    p = pool_size
    batch, out_h, out_w, channels = output.shape
    reshaped = x.reshape(batch, out_h, p, out_w, p, channels)
    mask = reshaped == output[:, :, None, :, None, :]
    spread = mask * grad[:, :, None, :, None, :]
    return spread.reshape(batch, out_h * p, out_w * p, channels)


class MaxPool2D(Layer):
    """Non-overlapping max pooling."""

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._input: Optional[np.ndarray] = None
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"MaxPool2D expects (batch, H, W, C), got shape {x.shape}")
        p = self.pool_size
        out_h = x.shape[1] // p
        out_w = x.shape[2] // p
        self._input = x[:, : out_h * p, : out_w * p, :]
        self._output = maxpool_forward(self._input, p)
        return self._output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._input is not None and self._output is not None
        return maxpool_backward(self._input, self._output, grad, self.pool_size)

    def output_dim(self, input_dim):
        if isinstance(input_dim, tuple) and len(input_dim) == 3:
            height, width, channels = input_dim
            return (height // self.pool_size, width // self.pool_size, channels)
        return input_dim

    def config(self) -> dict:
        return {"pool_size": self.pool_size}

    def __repr__(self) -> str:
        return f"MaxPool2D(pool_size={self.pool_size})"


class GlobalAveragePooling2D(Layer):
    """Average each channel over the spatial dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: Optional[tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(
                f"GlobalAveragePooling2D expects (batch, H, W, C), got shape {x.shape}"
            )
        self._input_shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._input_shape is not None
        batch, height, width, channels = self._input_shape
        spread = grad[:, None, None, :] / (height * width)
        return np.broadcast_to(spread, self._input_shape).copy()

    def output_dim(self, input_dim):
        if isinstance(input_dim, tuple) and len(input_dim) == 3:
            return input_dim[2]
        return input_dim

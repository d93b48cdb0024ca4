"""Loop oracles for the neural kernels (``repro.nn.conv`` / ``repro.nn.recurrent``)."""

from __future__ import annotations

import numpy as np

from repro.nn.recurrent import _sigmoid


def extract_patches_loop(x: np.ndarray, kernel_size: int) -> np.ndarray:
    """Loop-over-output-pixels patch extraction (im2col)."""
    batch, height, width, channels = x.shape
    k = kernel_size
    out_h = height - k + 1
    out_w = width - k + 1
    patches = np.zeros((batch, out_h, out_w, k * k * channels))
    for i in range(out_h):
        for j in range(out_w):
            patches[:, i, j, :] = x[:, i : i + k, j : j + k, :].reshape(batch, -1)
    return patches


def scatter_patch_grads_loop(
    d_patches: np.ndarray, input_shape: tuple[int, ...], kernel_size: int
) -> np.ndarray:
    """Per-output-pixel col2im accumulation."""
    batch, height, width, channels = input_shape
    k = kernel_size
    out_h = height - k + 1
    out_w = width - k + 1
    grad_input = np.zeros(input_shape)
    for i in range(out_h):
        for j in range(out_w):
            grad_input[:, i : i + k, j : j + k, :] += d_patches[:, i, j, :].reshape(
                batch, k, k, channels
            )
    return grad_input


def maxpool_forward_loop(x: np.ndarray, pool_size: int) -> np.ndarray:
    """Per-output-pixel max pooling."""
    p = pool_size
    batch, height, width, channels = x.shape
    out_h = height // p
    out_w = width // p
    output = np.zeros((batch, out_h, out_w, channels))
    for i in range(out_h):
        for j in range(out_w):
            output[:, i, j, :] = x[:, i * p : (i + 1) * p, j * p : (j + 1) * p, :].max(
                axis=(1, 2)
            )
    return output


def maxpool_backward_loop(
    x: np.ndarray, output: np.ndarray, grad: np.ndarray, pool_size: int
) -> np.ndarray:
    """Per-output-pixel gradient routing to max positions (ties all receive it)."""
    p = pool_size
    batch, out_h, out_w, channels = output.shape
    grad_input = np.zeros((batch, out_h * p, out_w * p, channels))
    for i in range(out_h):
        for j in range(out_w):
            window = x[:, i * p : (i + 1) * p, j * p : (j + 1) * p, :]
            mask = window == output[:, i, None, j, None, :].reshape(batch, 1, 1, channels)
            grad_input[:, i * p : (i + 1) * p, j * p : (j + 1) * p, :] = (
                mask * grad[:, i, None, j, None, :].reshape(batch, 1, 1, channels)
            )
    return grad_input


def lstm_forward_gates(params: dict, x: np.ndarray) -> tuple[np.ndarray, list[dict]]:
    """Per-gate LSTM forward: four separate gate products per timestep.

    Returns the last hidden state and the per-step cache
    :func:`lstm_backward_gates` consumes.
    """
    batch, time_steps, _ = x.shape
    hidden_dim = params["b_f"].size
    h = np.zeros((batch, hidden_dim))
    c = np.zeros((batch, hidden_dim))
    steps = []
    for t in range(time_steps):
        concat = np.concatenate([x[:, t, :], h], axis=1)
        f = _sigmoid(concat @ params["W_f"] + params["b_f"])
        i = _sigmoid(concat @ params["W_i"] + params["b_i"])
        c_hat = np.tanh(concat @ params["W_c"] + params["b_c"])
        o = _sigmoid(concat @ params["W_o"] + params["b_o"])
        c_prev = c
        c = f * c_prev + i * c_hat
        h = o * np.tanh(c)
        steps.append(
            {"concat": concat, "f": f, "i": i, "c_hat": c_hat, "o": o, "c": c, "c_prev": c_prev}
        )
    return h, steps


def lstm_backward_gates(
    params: dict, x: np.ndarray, steps: list[dict], grad: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Per-gate backpropagation through time: ``(grad_input, param_grads)``."""
    batch, time_steps, input_dim = x.shape
    hidden_dim = params["b_f"].size
    grads = {key: np.zeros_like(value) for key, value in params.items()}
    grad_input = np.zeros_like(x)
    dh_next = grad
    dc_next = np.zeros((batch, hidden_dim))

    for t in reversed(range(time_steps)):
        step = steps[t]
        tanh_c = np.tanh(step["c"])
        do = dh_next * tanh_c
        dc = dh_next * step["o"] * (1.0 - tanh_c**2) + dc_next
        df = dc * step["c_prev"]
        di = dc * step["c_hat"]
        dc_hat = dc * step["i"]
        dc_prev = dc * step["f"]

        # Pre-activation gradients.
        do_pre = do * step["o"] * (1.0 - step["o"])
        df_pre = df * step["f"] * (1.0 - step["f"])
        di_pre = di * step["i"] * (1.0 - step["i"])
        dc_hat_pre = dc_hat * (1.0 - step["c_hat"] ** 2)

        concat = step["concat"]
        grads["W_f"] += concat.T @ df_pre
        grads["W_i"] += concat.T @ di_pre
        grads["W_c"] += concat.T @ dc_hat_pre
        grads["W_o"] += concat.T @ do_pre
        grads["b_f"] += df_pre.sum(axis=0)
        grads["b_i"] += di_pre.sum(axis=0)
        grads["b_c"] += dc_hat_pre.sum(axis=0)
        grads["b_o"] += do_pre.sum(axis=0)

        d_concat = (
            df_pre @ params["W_f"].T
            + di_pre @ params["W_i"].T
            + dc_hat_pre @ params["W_c"].T
            + do_pre @ params["W_o"].T
        )
        grad_input[:, t, :] = d_concat[:, :input_dim]
        dh_next = d_concat[:, input_dim:]
        dc_next = dc_prev

    return grad_input, grads


def synthetic_region_maps_loop(
    n_samples: int, input_shape: tuple[int, int], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``repro.nn.pretrained._synthetic_region_maps``, one point at a time."""
    rows, cols = input_shape
    maps = np.zeros((n_samples, rows, cols, 1))
    labels = np.zeros(n_samples)
    for index in range(n_samples):
        bottom_heavy = index % 2 == 0
        labels[index] = 1.0 if bottom_heavy else 0.0
        n_points = rng.integers(30, 80)
        if bottom_heavy:
            row_centers = rng.normal(rows * 0.75, rows * 0.1, size=n_points)
        else:
            row_centers = rng.normal(rows * 0.25, rows * 0.1, size=n_points)
        col_centers = rng.uniform(0, cols, size=n_points)
        for row, col in zip(row_centers, col_centers):
            r = int(np.clip(row, 0, rows - 1))
            c = int(np.clip(col, 0, cols - 1))
            maps[index, r, c, 0] += 1.0
        maximum = maps[index].max()
        if maximum > 0:
            maps[index] /= maximum
    return maps, labels

"""An LSTM layer (last-hidden-state output) with backpropagation through time.

Phi_Seq processes, per matcher, the sequence of (confidence, elapsed time,
consensus) triplets.  The layer consumes a batch of sequences shaped
``(batch, time, features)`` and emits the final hidden state shaped
``(batch, hidden)``, matching the paper's "LSTM hidden layer of 64 nodes
followed by dropout and a dense layer".

The fast path steps the **whole padded batch** with a single fused-gate
matrix multiply per timestep (the four gate weight matrices concatenated
into one ``(features + hidden, 4 * hidden)`` operand), instead of four
separate per-gate products; the backward pass mirrors this with one fused
pre-activation gradient product per timestep.  The original per-gate
implementation lives in ``tests/oracles/nn.py``; the two are asserted
equivalent to tight tolerance (fusing the GEMM operands may reassociate
floating-point accumulation) in ``tests/nn/test_kernel_equivalence.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Layer

# Fused operand layout: the three sigmoid gates first so one sigmoid
# evaluation covers them, then the tanh candidate gate.
_GATES = ("f", "i", "o", "c")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


class LSTM(Layer):
    """A single LSTM layer returning its last hidden state."""

    def __init__(self, input_dim: int, hidden_dim: int, seed: Optional[int] = None) -> None:
        super().__init__()
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("LSTM dimensions must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        rng = np.random.default_rng(seed)
        concat_dim = input_dim + hidden_dim
        limit = np.sqrt(6.0 / (concat_dim + hidden_dim))

        def init(shape: tuple[int, ...]) -> np.ndarray:
            return rng.uniform(-limit, limit, size=shape)

        # Gate weights act on the concatenation [x_t, h_{t-1}].
        self.params = {
            "W_f": init((concat_dim, hidden_dim)),
            "W_i": init((concat_dim, hidden_dim)),
            "W_c": init((concat_dim, hidden_dim)),
            "W_o": init((concat_dim, hidden_dim)),
            "b_f": np.ones(hidden_dim),  # forget bias of 1 (standard trick)
            "b_i": np.zeros(hidden_dim),
            "b_c": np.zeros(hidden_dim),
            "b_o": np.zeros(hidden_dim),
        }
        self.grads = {key: np.zeros_like(value) for key, value in self.params.items()}
        self._cache: Optional[dict] = None

    def _fused_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The four gate operands concatenated into one (D+H, 4H) matrix."""
        weights = np.concatenate([self.params[f"W_{g}"] for g in _GATES], axis=1)
        biases = np.concatenate([self.params[f"b_{g}"] for g in _GATES])
        return weights, biases

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(f"LSTM expects (batch, time, features), got shape {x.shape}")
        if x.shape[2] != self.input_dim:
            raise ValueError(
                f"LSTM expected {self.input_dim} input features, got {x.shape[2]}"
            )
        batch, time_steps, _ = x.shape
        hidden = self.hidden_dim
        weights, biases = self._fused_weights()
        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        steps = []
        for t in range(time_steps):
            concat = np.concatenate([x[:, t, :], h], axis=1)
            z = concat @ weights + biases
            sig = _sigmoid(z[:, : 3 * hidden])
            f = sig[:, :hidden]
            i = sig[:, hidden : 2 * hidden]
            o = sig[:, 2 * hidden :]
            c_hat = np.tanh(z[:, 3 * hidden :])
            c_prev = c
            c = f * c_prev + i * c_hat
            h = o * np.tanh(c)
            steps.append((concat, f, i, c_hat, o, c, c_prev))
        self._cache = {"x": x, "steps": steps, "weights": weights}
        return h

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        cache = self._cache
        x = cache["x"]
        batch, time_steps, _ = x.shape
        hidden = self.hidden_dim
        weights = cache["weights"]

        d_weights = np.zeros_like(weights)
        d_biases = np.zeros(4 * hidden)
        grad_input = np.zeros_like(x)
        dh_next = grad
        dc_next = np.zeros((batch, hidden))

        for t in reversed(range(time_steps)):
            concat, f, i, c_hat, o, c, c_prev = cache["steps"][t]

            tanh_c = np.tanh(c)
            do = dh_next * tanh_c
            dc = dh_next * o * (1.0 - tanh_c**2) + dc_next

            d_z = np.empty((batch, 4 * hidden))
            d_z[:, :hidden] = (dc * c_prev) * f * (1.0 - f)
            d_z[:, hidden : 2 * hidden] = (dc * c_hat) * i * (1.0 - i)
            d_z[:, 2 * hidden : 3 * hidden] = do * o * (1.0 - o)
            d_z[:, 3 * hidden :] = (dc * i) * (1.0 - c_hat**2)

            d_weights += concat.T @ d_z
            d_biases += d_z.sum(axis=0)

            d_concat = d_z @ weights.T
            grad_input[:, t, :] = d_concat[:, : self.input_dim]
            dh_next = d_concat[:, self.input_dim :]
            dc_next = dc * f

        for index, gate in enumerate(_GATES):
            self.grads[f"W_{gate}"] = d_weights[:, index * hidden : (index + 1) * hidden].copy()
            self.grads[f"b_{gate}"] = d_biases[index * hidden : (index + 1) * hidden].copy()
        return grad_input

    def output_dim(self, input_dim):
        return self.hidden_dim

    def config(self) -> dict:
        return {"input_dim": self.input_dim, "hidden_dim": self.hidden_dim}

    def __repr__(self) -> str:
        return f"LSTM(input_dim={self.input_dim}, hidden_dim={self.hidden_dim})"


def pad_sequences(sequences: list[np.ndarray], max_length: Optional[int] = None) -> np.ndarray:
    """Pad / truncate variable-length sequences into a dense (batch, time, feat) array.

    Sequences shorter than ``max_length`` are front-padded with zeros so the
    informative suffix sits next to the LSTM's final hidden state; longer
    sequences keep their most recent ``max_length`` steps.
    """
    if not sequences:
        return np.zeros((0, 0, 0))
    feature_dim = sequences[0].shape[1] if sequences[0].ndim == 2 else 1
    lengths = [s.shape[0] for s in sequences]
    target = max_length or max(lengths)
    batch = np.zeros((len(sequences), target, feature_dim))
    for index, sequence in enumerate(sequences):
        array = np.asarray(sequence, dtype=float)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        if array.shape[0] > target:
            array = array[-target:]
        batch[index, target - array.shape[0] :, :] = array
    return batch


def sequence_length_mask(lengths: list[int], max_length: int) -> np.ndarray:
    """A ``(batch, max_length)`` 0/1 mask matching :func:`pad_sequences`.

    Entry ``(b, t)`` is 1 where timestep ``t`` of padded sequence ``b``
    carries real (non-padding) data — the front-padding convention puts the
    real suffix at the *end* of the padded axis.
    """
    lengths_array = np.minimum(np.asarray(lengths, dtype=np.int64), max_length)
    steps = np.arange(max_length)
    return (steps[None, :] >= (max_length - lengths_array[:, None])).astype(float)

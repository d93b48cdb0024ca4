"""Optimizers: Adam (the paper's choice, eta=0.001, beta1=0.9, beta2=0.999) and SGD."""

from __future__ import annotations

import numpy as np


def _encode_slot_keys(slots: dict[tuple[int, str], np.ndarray]) -> dict[str, np.ndarray]:
    """Flatten ``(layer_index, parameter_name)`` slot keys to strings.

    The string form (``"0:W_f"``) is what :meth:`Optimizer.get_state`
    exposes, so optimizer state survives JSON/npy artifact round-trips.
    """
    return {f"{index}:{name}": value for (index, name), value in slots.items()}


def _decode_slot_keys(state: dict[str, np.ndarray]) -> dict[tuple[int, str], np.ndarray]:
    """Invert :func:`_encode_slot_keys`."""
    slots: dict[tuple[int, str], np.ndarray] = {}
    for key, value in state.items():
        index, _, name = key.partition(":")
        slots[(int(index), name)] = np.asarray(value, dtype=float)
    return slots


class Optimizer:
    """Updates layer parameters in place from accumulated gradients."""

    def step(self, layers) -> None:
        """Apply one update to every parameterised layer."""
        raise NotImplementedError

    def get_state(self) -> dict:
        """The optimizer's mutable state as JSON/array-friendly values.

        Returns a dict of plain scalars and ``{"index:param": array}``
        sub-dicts; restoring it with :meth:`set_state` resumes training
        exactly where a checkpoint left off.  Stateless optimizers return
        an empty dict.
        """
        return {}

    def set_state(self, state: dict) -> None:
        """Restore state captured with :meth:`get_state`."""


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity: dict[tuple[int, str], np.ndarray] = {}

    def step(self, layers) -> None:
        for layer_index, layer in enumerate(layers):
            for name, parameter in layer.params.items():
                gradient = layer.grads.get(name)
                if gradient is None:
                    continue
                key = (layer_index, name)
                velocity = self._velocity.get(key)
                if velocity is None:
                    velocity = np.zeros_like(parameter)
                velocity = self.momentum * velocity - self.learning_rate * gradient
                self._velocity[key] = velocity
                parameter += velocity

    def get_state(self) -> dict:
        return {"velocity": _encode_slot_keys(self._velocity)}

    def set_state(self, state: dict) -> None:
        self._velocity = _decode_slot_keys(state.get("velocity", {}))


class Adam(Optimizer):
    """Adam optimiser with the paper's default hyper-parameters."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._first_moment: dict[tuple[int, str], np.ndarray] = {}
        self._second_moment: dict[tuple[int, str], np.ndarray] = {}
        self._t = 0

    def step(self, layers) -> None:
        self._t += 1
        for layer_index, layer in enumerate(layers):
            for name, parameter in layer.params.items():
                gradient = layer.grads.get(name)
                if gradient is None:
                    continue
                key = (layer_index, name)
                m = self._first_moment.get(key, np.zeros_like(parameter))
                v = self._second_moment.get(key, np.zeros_like(parameter))
                m = self.beta1 * m + (1.0 - self.beta1) * gradient
                v = self.beta2 * v + (1.0 - self.beta2) * gradient**2
                self._first_moment[key] = m
                self._second_moment[key] = v
                m_hat = m / (1.0 - self.beta1**self._t)
                v_hat = v / (1.0 - self.beta2**self._t)
                parameter -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def get_state(self) -> dict:
        return {
            "t": self._t,
            "first_moment": _encode_slot_keys(self._first_moment),
            "second_moment": _encode_slot_keys(self._second_moment),
        }

    def set_state(self, state: dict) -> None:
        self._t = int(state.get("t", 0))
        self._first_moment = _decode_slot_keys(state.get("first_moment", {}))
        self._second_moment = _decode_slot_keys(state.get("second_moment", {}))

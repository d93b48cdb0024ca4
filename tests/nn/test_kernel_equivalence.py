"""Equivalence tests: fast neural kernels vs the loop oracles in ``tests/oracles``.

The im2col convolution and the order-preserving col2im scatter are bitwise
against the per-output-pixel loops (identical patch matrices feed identical
products; per-cell gradient accumulation happens in the loop's order).  The
fused-gate LSTM reassociates GEMM operands, so it is held to tight
tolerance against both the per-gate oracle and a per-sequence scalar walk.
"""

import numpy as np
import pytest

from repro.nn import conv
from repro.nn.conv import Conv2D, MaxPool2D, extract_patches
from repro.nn.recurrent import LSTM, pad_sequences, sequence_length_mask
from tests.oracles.nn import (
    extract_patches_loop,
    lstm_backward_gates,
    lstm_forward_gates,
    maxpool_backward_loop,
    maxpool_forward_loop,
    scatter_patch_grads_loop,
    synthetic_region_maps_loop,
)


def _install_loop_kernels(patch) -> None:
    """Route Conv2D/MaxPool2D through the loop oracles for one block."""
    patch.setattr(conv, "extract_patches", extract_patches_loop)
    patch.setattr(conv, "scatter_patch_grads", scatter_patch_grads_loop)
    patch.setattr(conv, "maxpool_forward", maxpool_forward_loop)
    patch.setattr(conv, "maxpool_backward", maxpool_backward_loop)


# Odd shapes: 1x1 inputs, kernel == input size, non-square, multi-channel.
CONV_CASES = [
    ((1, 1, 1, 1), 1, 1),
    ((2, 3, 3, 1), 3, 2),
    ((3, 5, 7, 2), 2, 4),
    ((4, 24, 32, 1), 3, 4),
    ((2, 4, 9, 3), 4, 5),
]


class TestConvEquivalence:
    @pytest.mark.parametrize("shape,kernel_size,out_channels", CONV_CASES)
    def test_patches_bitwise(self, shape, kernel_size, out_channels):
        rng = np.random.default_rng(shape[1] * 10 + kernel_size)
        x = rng.normal(size=shape)
        np.testing.assert_array_equal(
            extract_patches(x, kernel_size), extract_patches_loop(x, kernel_size)
        )

    @pytest.mark.parametrize("shape,kernel_size,out_channels", CONV_CASES)
    def test_forward_backward_bitwise(self, shape, kernel_size, out_channels, monkeypatch):
        rng = np.random.default_rng(shape[1] * 100 + kernel_size)
        x = rng.normal(size=shape)
        layer = Conv2D(shape[3], out_channels, kernel_size=kernel_size, seed=7)
        out_h = shape[1] - kernel_size + 1
        out_w = shape[2] - kernel_size + 1
        grad = rng.normal(size=(shape[0], out_h, out_w, out_channels))

        with monkeypatch.context() as patch:
            _install_loop_kernels(patch)
            out_oracle = layer.forward(x)
            grad_in_oracle = layer.backward(grad)
            grads_oracle = {key: value.copy() for key, value in layer.grads.items()}
        out_fast = layer.forward(x)
        grad_in_fast = layer.backward(grad)

        np.testing.assert_array_equal(out_fast, out_oracle)
        np.testing.assert_array_equal(grad_in_fast, grad_in_oracle)
        for key, value in grads_oracle.items():
            np.testing.assert_array_equal(layer.grads[key], value)


class TestMaxPoolEquivalence:
    @pytest.mark.parametrize(
        "shape,pool",
        [((1, 1, 1, 1), 1), ((2, 5, 7, 3), 2), ((3, 9, 9, 2), 3), ((1, 24, 32, 1), 2)],
    )
    def test_forward_backward_bitwise(self, shape, pool):
        rng = np.random.default_rng(shape[1] + pool)
        x = rng.normal(size=shape)
        layer = MaxPool2D(pool_size=pool)
        out_fast = layer.forward(x)
        out_h, out_w = shape[1] // pool, shape[2] // pool
        grad = rng.normal(size=(shape[0], out_h, out_w, shape[3]))
        back_fast = layer.backward(grad)

        trimmed = x[:, : out_h * pool, : out_w * pool, :]
        np.testing.assert_array_equal(out_fast, maxpool_forward_loop(trimmed, pool))
        np.testing.assert_array_equal(
            back_fast, maxpool_backward_loop(trimmed, out_fast, grad, pool)
        )

    def test_tie_gradients_match(self):
        x = np.ones((1, 4, 4, 1))  # every window is a 4-way tie
        layer = MaxPool2D(pool_size=2)
        out_fast = layer.forward(x)
        back_fast = layer.backward(np.ones((1, 2, 2, 1)))
        back_oracle = maxpool_backward_loop(x, out_fast, np.ones((1, 2, 2, 1)), 2)
        np.testing.assert_array_equal(back_fast, back_oracle)
        np.testing.assert_array_equal(back_fast, np.ones((1, 4, 4, 1)))


class TestLSTMEquivalence:
    def test_fused_matches_per_gate_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(9, 13, 3))
        layer = LSTM(3, 11, seed=2)
        grad = rng.normal(size=(9, 11))
        hidden_oracle, steps = lstm_forward_gates(layer.params, x)
        grad_in_oracle, grads_oracle = lstm_backward_gates(layer.params, x, steps, grad)
        hidden_fast = layer.forward(x)
        grad_in_fast = layer.backward(grad)
        np.testing.assert_allclose(hidden_fast, hidden_oracle, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(grad_in_fast, grad_in_oracle, rtol=1e-8, atol=1e-11)
        for key, value in grads_oracle.items():
            np.testing.assert_allclose(layer.grads[key], value, rtol=1e-8, atol=1e-10)

    def test_batched_step_matches_per_sequence_walk(self):
        """One fused matmul per timestep over the batch == sequence-at-a-time."""
        rng = np.random.default_rng(1)
        # Ragged sequences, front-padded into one batch.
        sequences = [rng.normal(size=(length, 3)) for length in (1, 4, 9, 16)]
        batch = pad_sequences(sequences, max_length=16)
        layer = LSTM(3, 8, seed=3)
        batched = layer.forward(batch)
        for index, sequence in enumerate(sequences):
            single = layer.forward(pad_sequences([sequence], max_length=16))
            np.testing.assert_allclose(batched[index], single[0], rtol=1e-9, atol=1e-12)

    def test_length_mask_matches_padding_layout(self):
        mask = sequence_length_mask([2, 5, 0], max_length=4)
        np.testing.assert_array_equal(
            mask, [[0, 0, 1, 1], [1, 1, 1, 1], [0, 0, 0, 0]]
        )
        batch = pad_sequences([np.ones((2, 1)), np.ones((5, 1))], max_length=4)
        assert ((batch != 0).any(axis=2) == sequence_length_mask([2, 5], 4).astype(bool)).all()


class TestSyntheticRegionMaps:
    @pytest.mark.parametrize("n_samples", [0, 1, 7, 32])
    @pytest.mark.parametrize("shape", [(8, 8), (16, 20), (9, 31)])
    def test_scatter_equals_point_loop(self, n_samples, shape):
        """One ``np.add.at`` scatter, the same draws and maps as the point loop."""
        from repro.nn.pretrained import _synthetic_region_maps

        fast_rng, loop_rng = np.random.default_rng(n_samples), np.random.default_rng(n_samples)
        maps, labels = _synthetic_region_maps(n_samples, shape, fast_rng)
        expected_maps, expected_labels = synthetic_region_maps_loop(n_samples, shape, loop_rng)
        np.testing.assert_array_equal(maps, expected_maps)
        np.testing.assert_array_equal(labels, expected_labels)
        assert fast_rng.random() == loop_rng.random()  # the same draws were consumed


class TestSpatialFitBitwise:
    def test_phi_spa_fit_identical_across_kernel_impls(self, small_cohort, monkeypatch):
        """The CNN fit is bitwise-reproducible on the fast or the loop kernels.

        Conv2D/MaxPool2D fast paths are bitwise against the loops and all
        randomness is pre-drawn from the seed streams, so the whole
        fine-tuning trajectory — and the extracted Phi_Spa block — must be
        bit-for-bit identical whichever implementation runs it.
        """
        from repro.core.expert_model import characterize_population, labels_matrix
        from repro.core.features.spatial import SpatialFeatures

        matchers = small_cohort[:8]
        profiles, _ = characterize_population(matchers)
        labels = labels_matrix(profiles)

        def fit_and_extract():
            extractor = SpatialFeatures(
                n_filters=2, epochs=1, pretrain_samples=8, random_state=11
            )
            extractor.fit(matchers, labels)
            return extractor.extract_batch(matchers).matrix

        fast_block = fit_and_extract()
        with monkeypatch.context() as patch:
            _install_loop_kernels(patch)
            oracle_block = fit_and_extract()
        np.testing.assert_array_equal(fast_block, oracle_block)

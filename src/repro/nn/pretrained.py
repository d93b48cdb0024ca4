"""A small "pre-trained" CNN standing in for the paper's fine-tuned ResNet.

The paper fine-tunes an ImageNet-pre-trained ResNet on mouse heat maps
because its behavioural dataset is small.  Without network access or a GPU
we reproduce the *transfer-learning code path* rather than the specific
backbone: a compact CNN is first pre-trained on a synthetic screen-region
classification task (telling apart heat maps concentrated on different
screen regions), then its convolutional trunk is reused and fine-tuned on
the real objective (predicting an expertise label from a matcher's heat
map).  The substitution is documented in DESIGN.md.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.conv import Conv2D, GlobalAveragePooling2D, MaxPool2D
from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.losses import BinaryCrossEntropy
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam

#: Heat maps are down-scaled to this (rows, cols) grid before entering the CNN.
HEATMAP_INPUT_SHAPE: tuple[int, int] = (16, 20)


def build_heatmap_cnn(
    input_shape: tuple[int, int] = HEATMAP_INPUT_SHAPE,
    n_filters: int = 4,
    seed: Optional[int] = None,
) -> Sequential:
    """Build the heat-map CNN: conv -> pool -> conv -> GAP -> dense -> sigmoid."""
    rows, cols = input_shape
    if rows < 8 or cols < 8:
        raise ValueError("heat-map input must be at least 8x8")
    network = Sequential(
        [
            Conv2D(1, n_filters, kernel_size=3, seed=seed),
            ReLU(),
            MaxPool2D(pool_size=2),
            Conv2D(n_filters, n_filters * 2, kernel_size=3, seed=None if seed is None else seed + 1),
            ReLU(),
            GlobalAveragePooling2D(),
            Dense(n_filters * 2, 16, seed=None if seed is None else seed + 2),
            ReLU(),
            Dense(16, 1, seed=None if seed is None else seed + 3),
            Sigmoid(),
        ]
    )
    network.compile(loss=BinaryCrossEntropy(), optimizer=Adam(learning_rate=0.005))
    return network


def _synthetic_region_maps(
    n_samples: int,
    input_shape: tuple[int, int],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Heat maps concentrated in the top vs. bottom half of the screen.

    The binary task (is the activity concentrated at the bottom, where the
    matching matrix sits in the Ontobuilder UI?) gives the convolution
    filters a head start on the spatial statistics of real heat maps.
    """
    rows, cols = input_shape
    labels = np.zeros(n_samples)
    points = []
    # The per-sample draws stay in order: count, row centres, column centres.
    for index in range(n_samples):
        bottom_heavy = index % 2 == 0
        labels[index] = 1.0 if bottom_heavy else 0.0
        n_points = rng.integers(30, 80)
        if bottom_heavy:
            row_centers = rng.normal(rows * 0.75, rows * 0.1, size=n_points)
        else:
            row_centers = rng.normal(rows * 0.25, rows * 0.1, size=n_points)
        col_centers = rng.uniform(0, cols, size=n_points)
        points.append((np.full(n_points, index), row_centers, col_centers))
    maps = np.zeros((n_samples, rows, cols, 1))
    if points:
        samples, row_centers, col_centers = (np.concatenate(column) for column in zip(*points))
        # Clipped to the grid, so truncation toward zero is the floor.
        r = np.clip(row_centers, 0, rows - 1).astype(np.int64)
        c = np.clip(col_centers, 0, cols - 1).astype(np.int64)
        np.add.at(maps, (samples, r, c, 0), 1.0)
    maxima = maps.max(axis=(1, 2, 3), initial=0.0)
    hot = maxima > 0
    maps[hot] /= maxima[hot, None, None, None]
    return maps, labels


def pretrain_on_synthetic_regions(
    network: Sequential,
    n_samples: int = 64,
    epochs: int = 3,
    input_shape: tuple[int, int] = HEATMAP_INPUT_SHAPE,
    random_state: Optional[int] = 0,
) -> Sequential:
    """Pre-train the CNN on the synthetic screen-region task (in place)."""
    rng = np.random.default_rng(random_state)
    maps, labels = _synthetic_region_maps(n_samples, input_shape, rng)
    network.fit(maps, labels, epochs=epochs, batch_size=16, random_state=random_state)
    return network

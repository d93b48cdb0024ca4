"""Phi_Spa(G): CNN label coefficients over the four mouse heat maps.

The paper trains one convolutional network per heat-map type -- move
(``G_empty``), left click (``G_l``), right click (``G_r``) and scrolling
(``G_s``) -- fine-tuning a pre-trained backbone, and fuses the predicted
label coefficients as features.  Here each network is a small CNN
pre-trained on a synthetic screen-region task (see
:mod:`repro.nn.pretrained`) and fine-tuned on the training matchers' heat
maps; its four sigmoid outputs become the Phi_Spa features.  Extraction
runs one batched forward pass per channel over the whole population.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.expert_model import EXPERT_CHARACTERISTICS
from repro.core.features.base import FeatureBlock, FeatureExtractor
from repro.matching.matcher import HumanMatcher
from repro.matching.mouse import MouseEventType
from repro.nn.conv import Conv2D, GlobalAveragePooling2D, MaxPool2D
from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.losses import BinaryCrossEntropy
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.nn.pretrained import (
    HEATMAP_INPUT_SHAPE,
    build_heatmap_cnn,
    pretrain_on_synthetic_regions,
)

if TYPE_CHECKING:
    from repro.core.features.cache import FeatureBlockCache

#: The donor CNN layers whose weights seed each channel network (the two
#: convolutions of the shared trunk).
TRUNK_LAYERS = (0, 3)

#: Short names for the four heat-map channels, matching the paper's notation.
HEATMAP_CHANNELS: dict[str, MouseEventType] = {
    "move": MouseEventType.MOVE,
    "lclick": MouseEventType.LEFT_CLICK,
    "rclick": MouseEventType.RIGHT_CLICK,
    "scroll": MouseEventType.SCROLL,
}


def _multilabel_head(n_filters: int, seed: Optional[int]) -> Sequential:
    """The CNN architecture used per heat-map channel (4-unit sigmoid head)."""
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
            Dense(16, len(EXPERT_CHARACTERISTICS), seed=None if seed is None else seed + 3),
            Sigmoid(),
        ]
    )
    network.compile(loss=BinaryCrossEntropy(), optimizer=Adam(learning_rate=0.003))
    return network


class SpatialFeatures(FeatureExtractor):
    """CNN-derived label coefficients, one group per heat-map channel."""

    set_name = "spa"
    requires_fitting = True

    def __init__(
        self,
        input_shape: tuple[int, int] = HEATMAP_INPUT_SHAPE,
        n_filters: int = 4,
        epochs: int = 4,
        pretrain: bool = True,
        pretrain_samples: int = 48,
        random_state: Optional[int] = 0,
    ) -> None:
        self.input_shape = input_shape
        self.n_filters = n_filters
        self.epochs = epochs
        self.pretrain = pretrain
        self.pretrain_samples = pretrain_samples
        self.random_state = random_state
        self._networks: dict[str, Sequential] = {}
        self._fit_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Heat-map encoding
    # ------------------------------------------------------------------ #

    def _heatmap_tensor(self, matcher: HumanMatcher, event_type: MouseEventType) -> np.ndarray:
        """One matcher's heat map of ``event_type`` as a normalised (H, W, 1) tensor."""
        heat_map = matcher.movement.heat_map(event_type=event_type, shape=self.input_shape)
        normalized = heat_map.normalized()
        return normalized[..., np.newaxis]

    def _batch(self, matchers: Sequence[HumanMatcher], event_type: MouseEventType) -> np.ndarray:
        return np.stack([self._heatmap_tensor(matcher, event_type) for matcher in matchers])

    # ------------------------------------------------------------------ #
    # Training / extraction
    # ------------------------------------------------------------------ #

    def _pretrained_trunk(self, seed: Optional[int]) -> list[dict[str, np.ndarray]]:
        """Pre-train a single-output donor on the synthetic region task.

        Returns the weights of its convolutional trunk, one dict per
        :data:`TRUNK_LAYERS` entry.
        """
        donor = build_heatmap_cnn(self.input_shape, n_filters=self.n_filters, seed=seed)
        pretrain_on_synthetic_regions(
            donor,
            n_samples=self.pretrain_samples,
            epochs=2,
            input_shape=self.input_shape,
            random_state=self.random_state,
        )
        return [dict(donor.layers[index].params) for index in TRUNK_LAYERS]

    def _pretrain_head_on_regions(
        self, seed: Optional[int], cache: Optional["FeatureBlockCache"] = None
    ) -> Sequential:
        """Build a channel network, optionally warm-starting its conv trunk.

        The donor's trunk depends only on the configuration and the seeds,
        so a run's ``cache`` memoises it (unless ``random_state`` is None,
        which makes every pre-training draw fresh randomness).
        """
        network = _multilabel_head(self.n_filters, seed)
        if not self.pretrain:
            return network
        if cache is None or self.random_state is None:
            trunk = self._pretrained_trunk(seed)
        else:
            key = (
                f"pretrain:shape={self.input_shape},f={self.n_filters},seed={seed},"
                f"n={self.pretrain_samples},state={self.random_state}"
            )
            trunk = cache.get_or_fit(key, lambda: self._pretrained_trunk(seed))
        # Transfer learning: copy the trunk's weights into the channel network.
        for layer_index, params in zip(TRUNK_LAYERS, trunk):
            for name, value in params.items():
                network.layers[layer_index].params[name][...] = value
        return network

    def fit(
        self,
        matchers: Sequence[HumanMatcher],
        labels: np.ndarray | None = None,
        cache: Optional["FeatureBlockCache"] = None,
    ) -> "SpatialFeatures":
        """Fine-tune one CNN per heat-map channel on the training matchers.

        ``cache``, the run's feature cache, memoises the pre-trained donor
        trunks across fits.
        """
        if labels is None:
            raise ValueError("SpatialFeatures.fit requires the training label matrix")
        label_matrix = np.asarray(labels, dtype=float)
        if label_matrix.shape[0] != len(matchers):
            raise ValueError("labels must have one row per matcher")
        self._fit_fingerprint = self.fit_fingerprint(matchers, label_matrix)

        self._networks = {}
        for channel_index, (channel, event_type) in enumerate(HEATMAP_CHANNELS.items()):
            seed = None if self.random_state is None else self.random_state + 10 * channel_index
            network = self._pretrain_head_on_regions(seed, cache)
            batch = self._batch(matchers, event_type)
            network.fit(
                batch,
                label_matrix,
                epochs=self.epochs,
                batch_size=16,
                random_state=seed,
            )
            self._networks[channel] = network
        return self

    def feature_names(self) -> list[str]:
        return [
            self._prefixed(f"{channel}_{characteristic}")
            for channel in HEATMAP_CHANNELS
            for characteristic in EXPERT_CHARACTERISTICS
        ]

    def extract_batch(self, matchers: Sequence[HumanMatcher]) -> FeatureBlock:
        if not self._networks:
            raise RuntimeError("SpatialFeatures must be fitted before extraction")
        names = self.feature_names()
        if not matchers:
            return FeatureBlock(names, np.zeros((0, len(names))))
        columns = []
        for channel, event_type in HEATMAP_CHANNELS.items():
            network = self._networks[channel]
            batch = self._batch(matchers, event_type)
            columns.append(network.predict(batch))
        return FeatureBlock(names, np.hstack(columns))

    # ------------------------------------------------------------------ #
    # Cache fingerprints
    # ------------------------------------------------------------------ #

    def _hyper_fingerprint(self) -> str:
        return (
            f"SpatialFeatures:shape={self.input_shape},f={self.n_filters},"
            f"e={self.epochs},pre={self.pretrain},n={self.pretrain_samples},"
            f"seed={self.random_state}"
        )

    def fit_fingerprint(self, matchers: Sequence[HumanMatcher], labels: np.ndarray) -> str:
        """Digest of everything :meth:`fit` depends on (see SequentialFeatures)."""
        from repro.core.features.cache import array_fingerprint, population_fingerprint

        raw = "|".join(
            (
                self._hyper_fingerprint(),
                population_fingerprint(matchers),
                array_fingerprint(labels),
            )
        )
        return hashlib.blake2b(raw.encode(), digest_size=16).hexdigest()

    def config_fingerprint(self) -> str:
        if self._fit_fingerprint is None:
            return f"{self._hyper_fingerprint()}:unfitted"
        return f"SpatialFeatures:fit={self._fit_fingerprint}"

"""Experiment configuration shared by all tables and figures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


def _small_neural_config() -> dict[str, dict]:
    """Neural-extractor settings small enough for CPU-only benchmark runs."""
    return {
        "seq": {"hidden_dim": 8, "dense_dim": 12, "max_sequence_length": 30, "epochs": 4},
        "spa": {"n_filters": 2, "epochs": 2, "pretrain_samples": 24},
    }


@dataclass
class ExperimentConfig:
    """Knobs controlling dataset size and model capacity for the experiments.

    ``paper_scale()`` reproduces the paper's cohort sizes (106 PO matchers,
    34 OAEI matchers, 5 folds); ``reduced()`` is the default used by tests
    and benchmarks so the whole suite stays laptop-scale.
    """

    n_po_matchers: int = 40
    n_oaei_matchers: int = 16
    n_folds: int = 3
    random_state: int = 42
    n_bootstrap: int = 500
    use_neural_features: bool = True
    neural_config: dict[str, dict] = field(default_factory=_small_neural_config)
    #: Runtime backend spec for the parallelisable loops (``"serial"`` or
    #: ``"process[:N]"``); ``None`` defers to the
    #: ``REPRO_RUNTIME`` environment variable.  Results are bitwise
    #: identical on every backend.
    runtime: str | None = None

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The paper's experimental scale (slow on CPU; used for full runs)."""
        return cls(
            n_po_matchers=106,
            n_oaei_matchers=34,
            n_folds=5,
            n_bootstrap=2000,
        )

    @classmethod
    def reduced(cls, random_state: int = 42) -> "ExperimentConfig":
        """A reduced-scale configuration for CI, tests and benchmarks."""
        return cls(random_state=random_state)

    @classmethod
    def tiny(cls, random_state: int = 42) -> "ExperimentConfig":
        """The smallest configuration that still exercises every code path."""
        return cls(
            n_po_matchers=18,
            n_oaei_matchers=8,
            n_folds=2,
            n_bootstrap=100,
            random_state=random_state,
            neural_config={
                "seq": {"hidden_dim": 4, "dense_dim": 6, "max_sequence_length": 15, "epochs": 2},
                "spa": {"n_filters": 2, "epochs": 1, "pretrain_samples": 8},
            },
        )

    @classmethod
    def from_scale(cls, scale: str, random_state: int = 42) -> "ExperimentConfig":
        """Build the configuration registered under a scale name.

        Args
        ----
        scale:
            One of :data:`SCALE_NAMES` (``"tiny"``, ``"reduced"``,
            ``"paper"``).
        random_state:
            Master seed installed on the returned configuration.

        Raises
        ------
        ValueError
            If ``scale`` is not a registered scale name.
        """
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; expected one of {SCALE_NAMES}")
        config = SCALES[scale]()
        config.random_state = random_state
        return config

    @property
    def feature_sets(self) -> tuple[str, ...]:
        """Feature sets active under this configuration."""
        if self.use_neural_features:
            return ("lrsm", "beh", "mou", "seq", "spa")
        return ("lrsm", "beh", "mou")


#: Scale name -> configuration factory, shared by the experiments runner and
#: the ``repro.serve`` CLI so both speak the same ``--scale`` vocabulary.
SCALES: dict[str, Callable[[], "ExperimentConfig"]] = {
    "tiny": ExperimentConfig.tiny,
    "reduced": ExperimentConfig.reduced,
    "paper": ExperimentConfig.paper_scale,
}

#: The registered scale names, in increasing-cost order.
SCALE_NAMES: tuple[str, ...] = tuple(SCALES)

"""Feature-set ablation (Section IV-E, Table III).

Two modes, as in the paper:

* ``include`` -- train MExI with a single feature set,
* ``exclude`` -- train MExI with all feature sets but one.

Each run reports the five accuracy measures (A_P, A_R, A_Res, A_Cal, A_ML),
so the table can be printed directly.

All eleven configurations share one :class:`FeatureBlockCache`: the offline
feature blocks (and the deterministic neural fits) are computed by the first
configuration that needs them and reused by the rest, so the study no longer
re-extracts the same population eleven times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import EXPERT_CHARACTERISTICS
from repro.core.features.cache import FeatureBlockCache
from repro.core.features.pipeline import FEATURE_SET_NAMES
from repro.matching.matcher import HumanMatcher
from repro.ml.metrics import accuracy_score, jaccard_multilabel_score
from repro.runtime import RuntimeSpec, resolve_runner


@dataclass
class AblationResult:
    """Accuracy measures of one ablation configuration."""

    mode: str          # "full", "include" or "exclude"
    feature_set: str   # the set included / excluded ("all" for the full model)
    accuracies: dict[str, float]

    def row(self) -> dict[str, float | str]:
        """A flat row for table printing."""
        return {"mode": self.mode, "feature_set": self.feature_set, **self.accuracies}


def evaluate_predictions(true_labels: np.ndarray, predicted_labels: np.ndarray) -> dict[str, float]:
    """The five accuracy measures of eqs. 6-7 on a label matrix pair."""
    true = np.asarray(true_labels, dtype=int)
    predicted = np.asarray(predicted_labels, dtype=int)
    if true.shape != predicted.shape:
        raise ValueError("label matrices must have the same shape")
    accuracies = {
        f"A_{short}": accuracy_score(true[:, index], predicted[:, index])
        for index, short in enumerate(("P", "R", "Res", "Cal"))
    }
    accuracies["A_ML"] = jaccard_multilabel_score(true, predicted)
    return accuracies


def _run_configuration(
    feature_sets: Sequence[str],
    train_matchers: Sequence[HumanMatcher],
    train_labels: np.ndarray,
    test_matchers: Sequence[HumanMatcher],
    test_labels: np.ndarray,
    variant: MExIVariant,
    neural_config: Optional[dict[str, dict]],
    random_state: int,
    cache: Optional[FeatureBlockCache] = None,
    classifier_bank: Optional[Callable[[], list]] = None,
) -> dict[str, float]:
    model = MExICharacterizer(
        variant=variant,
        feature_sets=feature_sets,
        neural_config=neural_config,
        random_state=random_state,
        cache=cache,
        classifier_bank=classifier_bank,
    )
    model.fit(train_matchers, train_labels)
    predictions = model.predict(test_matchers)
    return evaluate_predictions(test_labels, predictions)


def ablation_configurations(
    feature_sets: Sequence[str], include_full: bool = True
) -> list[tuple[str, str, tuple[str, ...]]]:
    """The ``(mode, name, feature_sets)`` rows of Table III, in paper order."""
    configurations: list[tuple[str, str, tuple[str, ...]]] = []
    if include_full:
        configurations.append(("full", "all", tuple(feature_sets)))
    configurations += [("include", name, (name,)) for name in feature_sets]
    if len(feature_sets) > 1:
        configurations += [
            ("exclude", name, tuple(other for other in feature_sets if other != name))
            for name in feature_sets
        ]
    return configurations


def _configuration_task(feature_sets, shared) -> dict[str, float]:
    """Run one ablation configuration (module-level for pickling).

    ``shared`` bundles everything the eleven configurations have in common
    (split populations, labels, settings, the pre-warmed cache) and is
    delivered once per process worker; only the configuration's feature-set
    tuple travels per task.
    """
    (
        train_matchers,
        train_labels,
        test_matchers,
        test_labels,
        variant,
        neural_config,
        random_state,
        cache,
        classifier_bank,
    ) = shared
    return _run_configuration(
        feature_sets,
        train_matchers,
        train_labels,
        test_matchers,
        test_labels,
        variant,
        neural_config,
        random_state,
        cache,
        classifier_bank,
    )


def _prewarm_cache(
    feature_sets: Sequence[str],
    train_matchers: Sequence[HumanMatcher],
    train_labels: np.ndarray,
    test_matchers: Sequence[HumanMatcher],
    variant: MExIVariant,
    neural_config: Optional[dict[str, dict]],
    random_state: int,
    cache: FeatureBlockCache,
) -> None:
    """Populate ``cache`` with everything the ablation configurations read.

    Builds a full-model characterizer exactly as :func:`_run_configuration`
    would and runs its :meth:`~repro.core.characterizer.MExICharacterizer.prewarm`
    — the extraction path of ``fit`` plus the test-block extraction of
    ``predict``, minus classifier training.  After this, every
    configuration — in any worker — only hits the cache, so ``process``
    workers that receive a pickled copy never recompute blocks.
    """
    model = MExICharacterizer(
        variant=variant,
        feature_sets=feature_sets,
        neural_config=neural_config,
        random_state=random_state,
        cache=cache,
    )
    model.prewarm(train_matchers, train_labels, test_matchers)


def run_ablation(
    train_matchers: Sequence[HumanMatcher],
    train_labels: np.ndarray,
    test_matchers: Sequence[HumanMatcher],
    test_labels: np.ndarray,
    variant: MExIVariant = MExIVariant.SUB_50,
    feature_sets: Sequence[str] = FEATURE_SET_NAMES,
    neural_config: Optional[dict[str, dict]] = None,
    random_state: int = 0,
    include_full: bool = True,
    cache: Optional[FeatureBlockCache] = None,
    use_cache: bool = True,
    classifier_bank: Optional[Callable[[], list]] = None,
    runtime: RuntimeSpec = None,
    prewarm: bool = True,
) -> list[AblationResult]:
    """Run the full include/exclude ablation and return one result per row.

    One :class:`FeatureBlockCache` is shared across every configuration
    (pass ``cache`` to share it with a larger study, or ``use_cache=False``
    to force the uncached re-extract-everything behaviour for comparison;
    combining the two is contradictory and rejected).  ``classifier_bank``
    overrides the candidate classifiers of every configuration (the
    feature-engine benchmark passes a scalar-split bank to reproduce the
    seed implementation's cost profile).

    The eleven configurations are independent (each seeds its own models
    from ``random_state``), so they fan out on ``runtime`` (or the
    ``REPRO_RUNTIME`` default).  Before a parallel run the cache is
    pre-warmed with every feature block and neural fit the configurations
    share, so each process worker receives a complete pickled copy; rows
    are collected in configuration order and are bitwise identical to the
    serial loop on every backend.  Callers that hand in an already-warm
    cache can skip the redundant pass with ``prewarm=False``.  A parallel ``classifier_bank`` must be picklable
    for the ``process`` backend.
    """
    if not use_cache and cache is not None:
        raise ValueError("use_cache=False contradicts an explicitly supplied cache")
    if cache is None and use_cache:
        cache = FeatureBlockCache()

    runner = resolve_runner(runtime)
    configurations = ablation_configurations(feature_sets, include_full)
    if prewarm and runner.backend != "serial" and cache is not None:
        _prewarm_cache(
            feature_sets,
            train_matchers,
            train_labels,
            test_matchers,
            variant,
            neural_config,
            random_state,
            cache,
        )

    shared = (
        train_matchers,
        train_labels,
        test_matchers,
        test_labels,
        variant,
        neural_config,
        random_state,
        cache,
        classifier_bank,
    )
    accuracies_per_configuration = runner.map(
        _configuration_task, [sets for _, _, sets in configurations], context=shared
    )
    return [
        AblationResult(mode=mode, feature_set=name, accuracies=accuracies)
        for (mode, name, _), accuracies in zip(configurations, accuracies_per_configuration)
    ]


def most_important_set(
    results: Sequence[AblationResult], measure: str, mode: str = "include"
) -> str:
    """The feature set whose inclusion scores highest (or exclusion hurts most)."""
    candidates = [r for r in results if r.mode == mode]
    if not candidates:
        raise ValueError(f"no ablation results with mode {mode!r}")
    if mode == "include":
        best = max(candidates, key=lambda r: r.accuracies[measure])
    else:
        best = min(candidates, key=lambda r: r.accuracies[measure])
    return best.feature_set

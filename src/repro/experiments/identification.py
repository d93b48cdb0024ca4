"""Expert identification (Table IIa): k-fold evaluation on the PO task.

For every fold, cognitive thresholds are fitted on the training matchers,
every baseline and every MExI variant is trained on the training fold and
evaluated on the held-out fold with the five accuracy measures; results are
averaged over folds and the significance of MExI's improvement over the top
learned baseline is assessed with a two-sample bootstrap test, as in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.ablation import evaluate_predictions
from repro.core.baselines import BaselineCharacterizer, default_baselines
from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import ExpertThresholds, characterize_population, labels_matrix
from repro.core.features.cache import FeatureBlockCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.matching.matcher import HumanMatcher
from repro.ml.model_selection import KFold
from repro.runtime import resolve_runner
from repro.simulation.dataset import build_dataset
from repro.stats.bootstrap import two_sample_bootstrap_test

#: Order of the accuracy measures reported in Table II.
ACCURACY_MEASURES: tuple[str, ...] = ("A_P", "A_R", "A_Res", "A_Cal", "A_ML")


@dataclass
class MethodResult:
    """Per-method accuracies averaged over folds (one row of Table II)."""

    method: str
    mean_accuracies: dict[str, float]
    per_fold_accuracies: dict[str, list[float]]
    significant: dict[str, bool] = field(default_factory=dict)

    def row(self) -> dict[str, object]:
        row: dict[str, object] = {"method": self.method}
        for measure in ACCURACY_MEASURES:
            value = self.mean_accuracies.get(measure, 0.0)
            marker = "*" if self.significant.get(measure, False) else ""
            row[measure] = f"{value:.2f}{marker}"
        return row


@dataclass
class IdentificationResult:
    """The full Table IIa: one row per baseline and MExI variant."""

    methods: list[MethodResult]
    n_folds: int
    n_matchers: int
    reference_baseline: str = "LRSM"

    def method(self, name: str) -> MethodResult:
        for result in self.methods:
            if result.method == name:
                return result
        raise KeyError(f"no results for method {name!r}")

    def format_table(self, title: str = "Table IIa: expert identification (PO)") -> str:
        rows = [result.row() for result in self.methods]
        return format_table(rows, columns=("method", *ACCURACY_MEASURES), title=title)


def _label_population(
    matchers: Sequence[HumanMatcher], thresholds: Optional[ExpertThresholds] = None
) -> tuple[np.ndarray, ExpertThresholds]:
    profiles, fitted = characterize_population(list(matchers), thresholds)
    return labels_matrix(profiles), fitted


def _mexi_variants(
    config: ExperimentConfig, cache: Optional[FeatureBlockCache] = None
) -> dict[str, MExICharacterizer]:
    """The three MExI training variants of Table II."""
    def build(variant: MExIVariant) -> MExICharacterizer:
        return MExICharacterizer(
            variant=variant,
            feature_sets=config.feature_sets,
            neural_config=config.neural_config,
            random_state=config.random_state,
            cache=cache,
        )

    return {
        "MExI_empty": build(MExIVariant.EMPTY),
        "MExI_50": build(MExIVariant.SUB_50),
        "MExI_70": build(MExIVariant.SUB_70),
    }


def evaluate_methods_on_split(
    train_matchers: Sequence[HumanMatcher],
    test_matchers: Sequence[HumanMatcher],
    config: ExperimentConfig,
    baselines: Optional[Sequence[BaselineCharacterizer]] = None,
    cache: Optional[FeatureBlockCache] = None,
) -> dict[str, dict[str, float]]:
    """Train and evaluate every method on one train/test split.

    The three MExI variants share ``cache``: the test cohort's offline
    feature blocks are extracted once instead of once per variant.
    """
    train_labels, thresholds = _label_population(train_matchers)
    test_labels, _ = _label_population(test_matchers, thresholds)

    accuracies: dict[str, dict[str, float]] = {}

    for baseline in baselines if baselines is not None else default_baselines(config.random_state):
        baseline.fit(train_matchers, train_labels)
        predictions = baseline.predict(test_matchers)
        accuracies[baseline.name] = evaluate_predictions(test_labels, predictions)

    for name, model in _mexi_variants(config, cache).items():
        model.fit(train_matchers, train_labels)
        predictions = model.predict(test_matchers)
        accuracies[name] = evaluate_predictions(test_labels, predictions)

    return accuracies


def _fold_task(task, shared) -> dict[str, dict[str, float]]:
    """Evaluate all methods on one fold (module-level for pickling)."""
    train, test = task
    config, cache = shared
    return evaluate_methods_on_split(train, test, config, cache=cache)


def _aggregate(
    fold_accuracies: list[dict[str, dict[str, float]]],
    config: ExperimentConfig,
    reference_baseline: str,
) -> list[MethodResult]:
    method_names = list(fold_accuracies[0])
    results = []
    for method in method_names:
        per_fold = {
            measure: [fold[method][measure] for fold in fold_accuracies]
            for measure in ACCURACY_MEASURES
        }
        mean = {measure: float(np.mean(values)) for measure, values in per_fold.items()}
        results.append(MethodResult(method=method, mean_accuracies=mean, per_fold_accuracies=per_fold))

    # Significance of MExI variants over the reference (top learned) baseline.
    reference = next((r for r in results if r.method == reference_baseline), None)
    if reference is not None:
        for result in results:
            if not result.method.startswith("MExI"):
                continue
            for measure in ACCURACY_MEASURES:
                mexi_scores = result.per_fold_accuracies[measure]
                reference_scores = reference.per_fold_accuracies[measure]
                if len(mexi_scores) < 2:
                    continue
                test = two_sample_bootstrap_test(
                    mexi_scores,
                    reference_scores,
                    n_bootstrap=config.n_bootstrap,
                    alternative="greater",
                    random_state=config.random_state,
                    runtime=config.runtime,
                )
                result.significant[measure] = test.is_significant
    return results


def run_identification_experiment(
    config: Optional[ExperimentConfig] = None,
    matchers: Optional[Sequence[HumanMatcher]] = None,
    cache: Optional[FeatureBlockCache] = None,
) -> IdentificationResult:
    """Run the full Table IIa experiment (k-fold CV on the PO cohort)."""
    config = config or ExperimentConfig.reduced()
    if cache is None:
        cache = FeatureBlockCache()
    if matchers is None:
        dataset = build_dataset(
            n_po_matchers=config.n_po_matchers,
            n_oaei_matchers=2,
            random_state=config.random_state,
        )
        matchers = dataset.po_matchers
    matchers = list(matchers)

    # The fold shuffle is drawn once here, before any fan-out; each fold's
    # methods then train independently (seeded from the config), so folds
    # run on the configured runtime with bitwise-identical tables.  Process
    # workers get pickled copies of the cache.
    folds = KFold(n_splits=config.n_folds, shuffle=True, random_state=config.random_state)
    tasks = []
    for train_indices, test_indices in folds.split(matchers):
        train = [matchers[i] for i in train_indices]
        test = [matchers[i] for i in test_indices]
        tasks.append((train, test))
    fold_accuracies = resolve_runner(config.runtime).map(
        _fold_task, tasks, context=(config, cache)
    )

    methods = _aggregate(fold_accuracies, config, reference_baseline="LRSM")
    return IdentificationResult(
        methods=methods, n_folds=config.n_folds, n_matchers=len(matchers)
    )

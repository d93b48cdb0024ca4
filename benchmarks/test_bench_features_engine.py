"""Batch-first feature engine: cached ablation vs the seed implementation.

Times the 11-configuration Table III ablation twice over the same split:

* **seed-equivalent baseline** — reproduces the seed implementation's cost
  profile: per-matcher scalar extraction (one pipeline pass per matcher, so
  the neural sets predict one sample at a time), no feature-block cache
  (every configuration re-extracts and refits everything) and trees grown
  one at a time with the historical scalar split search (the recursive
  grower in ``tests/oracles/ml.py``, installed with ``monkeypatch``);
* **cached engine** — batched extraction, one shared
  :class:`FeatureBlockCache` and lockstep tree growth (the only
  production path).

Both runs must produce bitwise-identical accuracy rows, and the cached
engine must be at least 2x faster.  Per-stage timings (offline extraction,
full pipeline fit, both ablation runs) are recorded into
``.bench_out/pytest/BENCH_features.json`` via the session hook in
``conftest.py``.
"""

import time

import numpy as np

from repro.core.ablation import evaluate_predictions, run_ablation
from repro.core.characterizer import MExICharacterizer, MExIVariant, default_classifier_bank
from repro.core.expert_model import characterize_population, labels_matrix
from repro.core.features import FeatureBlockCache, FeaturePipeline
from repro.ml.model_selection import train_test_split
from repro.ml.tree import DecisionTreeClassifier
from repro.simulation.dataset import build_dataset
from tests.oracles.ml import RecursiveTree, best_split_scalar, grow_recursive


class _PerMatcherPipeline(FeaturePipeline):
    """Seed-style extraction: one pipeline pass per matcher, no batching."""

    def transform(self, matchers, precomputed=None):
        if not matchers:
            return np.zeros((0, len(self.feature_names_)))
        return np.vstack(
            [FeaturePipeline.transform(self, [matcher]) for matcher in matchers]
        )


def _ablation_configurations(feature_sets):
    configs = [("full", "all", tuple(feature_sets))]
    configs += [("include", name, (name,)) for name in feature_sets]
    configs += [
        ("exclude", name, tuple(other for other in feature_sets if other != name))
        for name in feature_sets
    ]
    return configs


def _run_seed_equivalent(train, train_labels, test, test_labels, bench_config):
    """The seed implementation's loop: re-extract and refit everything, 11x."""
    rows = []
    for mode, name, feature_sets in _ablation_configurations(bench_config.feature_sets):
        pipeline = _PerMatcherPipeline(
            include=feature_sets,
            neural_config=bench_config.neural_config,
            random_state=bench_config.random_state,
        )
        model = MExICharacterizer(
            variant=MExIVariant.SUB_50,
            pipeline=pipeline,
            classifier_bank=lambda: default_classifier_bank(bench_config.random_state),
            random_state=bench_config.random_state,
        )
        model.fit(train, train_labels)
        accuracies = evaluate_predictions(test_labels, model.predict(test))
        rows.append((mode, name, tuple(sorted(accuracies.items()))))
    return rows


def test_bench_features_engine(bench_config, stage_timings, monkeypatch):
    dataset = build_dataset(
        n_po_matchers=bench_config.n_po_matchers,
        n_oaei_matchers=2,
        random_state=bench_config.random_state,
    )
    matchers = dataset.po_matchers

    # Stage: batch extraction of the offline feature sets over the cohort.
    offline = FeaturePipeline(include=("lrsm", "beh", "mou"))
    start = time.perf_counter()
    offline.fit(matchers)
    offline.transform_blocks(matchers)
    stage_timings["extraction_offline"] = time.perf_counter() - start

    # Stage: full pipeline fit (consensus + neural feature sets).
    profiles, thresholds = characterize_population(matchers)
    labels = labels_matrix(profiles)
    full = FeaturePipeline(
        neural_config=bench_config.neural_config, random_state=bench_config.random_state
    )
    start = time.perf_counter()
    full.fit(matchers, labels)
    stage_timings["fit_full_pipeline"] = time.perf_counter() - start

    # The same PO split run_ablation_study uses.
    indices = list(range(len(matchers)))
    train_idx, test_idx, _, _ = train_test_split(
        indices, indices, test_size=0.3, random_state=bench_config.random_state
    )
    train = [matchers[i] for i in train_idx]
    test = [matchers[i] for i in test_idx]
    train_profiles, fitted_thresholds = characterize_population(train)
    train_labels = labels_matrix(train_profiles)
    test_profiles, _ = characterize_population(test, fitted_thresholds)
    test_labels = labels_matrix(test_profiles)

    # Stage: the 11-configuration ablation, seed-equivalent baseline.
    with monkeypatch.context() as patch:
        patch.setattr(DecisionTreeClassifier, "_grow", staticmethod(grow_recursive))
        patch.setattr(RecursiveTree, "_best_split", best_split_scalar)
        start = time.perf_counter()
        seed_rows = _run_seed_equivalent(train, train_labels, test, test_labels, bench_config)
        seed_seconds = time.perf_counter() - start
    stage_timings["ablation_seed_equivalent"] = seed_seconds

    # Stage: the same ablation on the cached batch-first engine.
    cache = FeatureBlockCache()
    start = time.perf_counter()
    cached = run_ablation(
        train,
        train_labels,
        test,
        test_labels,
        variant=MExIVariant.SUB_50,
        feature_sets=bench_config.feature_sets,
        neural_config=bench_config.neural_config,
        random_state=bench_config.random_state,
        cache=cache,
    )
    cached_seconds = time.perf_counter() - start
    stage_timings["ablation_cached"] = cached_seconds
    speedup = seed_seconds / cached_seconds
    stage_timings["ablation_speedup_x"] = speedup

    cached_rows = [
        (r.mode, r.feature_set, tuple(sorted(r.accuracies.items()))) for r in cached
    ]

    print(f"\nseed-equivalent ablation (per-matcher, scalar splits, no cache): {seed_seconds:.2f}s")
    print(f"cached batch-first ablation: {cached_seconds:.2f}s ({speedup:.2f}x faster)")
    print(f"cache stats: {cache.stats()}")

    # The engine must be transparent: bitwise-identical accuracy rows.
    assert cached_rows == seed_rows

    # The headline claim: the cached engine beats the seed implementation 2x.
    assert speedup >= 2.0, f"cached ablation only {speedup:.2f}x faster than seed baseline"

    # The cache actually worked: offline blocks missed once, then hit.
    stats = cache.stats()
    assert stats["hits"] > stats["misses"]

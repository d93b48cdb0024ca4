"""Deterministic parallel training runtime: per-backend wall-clock + speedup gate.

Times the training-layer hot loops under both TaskRunner backends:

* the Table IIa identification folds (every baseline and MExI variant
  trained per fold, offline feature sets, cold feature cache),
* the 11-configuration Table III ablation (the end-to-end study loop).

A 40-tree random-forest fit is timed once: its trees grow in one
lockstep, not as per-tree tasks.  Outputs must be **bitwise identical**
on every backend — serial is the oracle — and on a multi-core machine
the ``process`` backend must beat the serial ablation by at least 1.5x,
comparing the medians of alternating serial/process runs.  All
wall-clock numbers (and the derived speedups) are recorded into
``.bench_out/pytest/BENCH_runtime.json`` via the session hook in
``conftest.py``.
"""

import dataclasses
import os
import statistics
import time

import numpy as np

from repro.core.ablation import run_ablation
from repro.core.characterizer import MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.core.features import FeatureBlockCache
from repro.experiments.identification import run_identification_experiment
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import train_test_split
from repro.runtime import BACKENDS, available_workers
from repro.simulation.dataset import build_dataset

#: The ablation speedup the process backend must deliver on >= MIN_CORES.
REQUIRED_ABLATION_SPEEDUP = 1.5
MIN_CORES = 2

#: Alternating serial/process ablation runs per backend; the gate compares
#: their medians, so one load spike on a shared host cannot decide it.
GATE_RUNS = 3


def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def _forest_data():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((400, 24))
    y = (X[:, 0] + X[:, 1] + 0.5 * rng.standard_normal(400) > 0).astype(int)
    return X, y


def test_bench_runtime_forest_and_folds(bench_config, runtime_timings):
    """Forest fit (one lockstep, no fan-out) and the identification folds per backend.

    The per-fold accuracies and significance markers must be identical on
    every backend; the forest fit is timed once, since its trees grow
    together and no longer fan out.
    """
    X, y = _forest_data()

    forest = RandomForestClassifier(n_estimators=40, max_depth=None, random_state=1)
    _, seconds = _timed(lambda: forest.fit(X, y))
    runtime_timings["forest_fit"] = seconds
    print(f"forest fit: {seconds:.2f}s")

    folds = {}
    for backend in BACKENDS:
        config = dataclasses.replace(bench_config, use_neural_features=False, runtime=backend)
        # A cold cache per backend, so every backend extracts the same blocks.
        result, seconds = _timed(
            lambda: run_identification_experiment(config, cache=FeatureBlockCache())
        )
        folds[backend] = [
            (method.method, method.per_fold_accuracies, method.significant)
            for method in result.methods
        ]
        runtime_timings[f"identification_{config.n_folds}fold_{backend}"] = seconds
        print(f"{config.n_folds}-fold identification [{backend}]: {seconds:.2f}s")

    assert folds["serial"] == folds["process"]


def test_bench_runtime_ablation(bench_config, runtime_timings):
    """The 11-configuration ablation under each backend, with the speedup gate.

    Feature extraction and the neural fits are shared, serial, pre-warm work
    (every parallel run pays them once before fanning out), so each backend
    is timed over a **pre-warmed** cache copy: the measurement isolates the
    eleven configuration runs — the training loop this runtime parallelises
    — and the pre-warm cost is recorded separately.
    """
    import pickle

    from repro.core.ablation import _prewarm_cache

    dataset = build_dataset(
        n_po_matchers=bench_config.n_po_matchers,
        n_oaei_matchers=2,
        random_state=bench_config.random_state,
    )
    matchers = dataset.po_matchers

    # The same PO split run_ablation_study uses.
    indices = list(range(len(matchers)))
    train_idx, test_idx, _, _ = train_test_split(
        indices, indices, test_size=0.3, random_state=bench_config.random_state
    )
    train = [matchers[i] for i in train_idx]
    test = [matchers[i] for i in test_idx]
    train_profiles, thresholds = characterize_population(train)
    train_labels = labels_matrix(train_profiles)
    test_profiles, _ = characterize_population(test, thresholds)
    test_labels = labels_matrix(test_profiles)

    warm = FeatureBlockCache()
    _, prewarm_seconds = _timed(
        lambda: _prewarm_cache(
            bench_config.feature_sets,
            train,
            train_labels,
            test,
            MExIVariant.SUB_50,
            bench_config.neural_config,
            bench_config.random_state,
            warm,
        )
    )
    runtime_timings["ablation_prewarm"] = prewarm_seconds
    warm_pickle = pickle.dumps(warm)
    print(f"shared pre-warm (extraction + neural fits): {prewarm_seconds:.2f}s")

    def ablation(backend):
        # Every backend starts from its own copy of the same warm cache
        # (prewarm=False: re-warming a warm cache is redundant work that
        # would penalise only the parallel backends).
        return run_ablation(
            train,
            train_labels,
            test,
            test_labels,
            variant=MExIVariant.SUB_50,
            feature_sets=bench_config.feature_sets,
            neural_config=bench_config.neural_config,
            random_state=bench_config.random_state,
            cache=pickle.loads(warm_pickle),
            runtime=backend,
            prewarm=False,
        )

    rows = {backend: [] for backend in BACKENDS}
    runs = {backend: [] for backend in BACKENDS}
    for backend in ["serial", "process"] * GATE_RUNS:
        results, elapsed = _timed(lambda: ablation(backend))
        rows[backend].append(
            [(r.mode, r.feature_set, tuple(sorted(r.accuracies.items()))) for r in results]
        )
        runs[backend].append(elapsed)
        print(f"11-config ablation, warm cache [{backend}]: {elapsed:.2f}s")

    seconds = {backend: statistics.median(values) for backend, values in runs.items()}
    for backend in BACKENDS:
        runtime_timings[f"ablation_11cfg_{backend}"] = seconds[backend]
    speedup = seconds["serial"] / seconds["process"]
    runtime_timings["ablation_speedup_process_x"] = speedup
    print(f"ablation speedup [process, median of {GATE_RUNS}]: {speedup:.2f}x")

    # Determinism is unconditional: every run of every backend reproduces
    # Table III bitwise.
    oracle = rows["serial"][0]
    for backend in BACKENDS:
        assert all(run == oracle for run in rows[backend]), backend

    # The speedup claim only holds where there are cores to fan out to.
    cores = min(os.cpu_count() or 1, available_workers())
    runtime_timings["cores_used"] = cores
    if cores >= MIN_CORES:
        speedup = seconds["serial"] / seconds["process"]
        assert speedup >= REQUIRED_ABLATION_SPEEDUP, (
            f"process backend only {speedup:.2f}x faster than serial "
            f"(medians of {GATE_RUNS} alternating runs) on {cores} cores "
            f"(required {REQUIRED_ABLATION_SPEEDUP}x)"
        )
    else:
        print(f"single core ({cores}): speedup gate skipped, determinism still asserted")

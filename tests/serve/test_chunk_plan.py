"""The derived extraction chunk plan of ``CharacterizationService.score_batch``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.features.cache import FeatureBlockCache
from repro.runtime import runner as runner_module
from repro.runtime.runner import TaskRunner
from repro.serve import service as service_module
from repro.serve.artifacts import load_model, save_model
from repro.serve.service import CharacterizationService, _balanced


@pytest.fixture
def chunk_sizes(monkeypatch):
    """Records the chunk sizes of every ``TaskRunner.map`` call."""
    calls: list[list[int]] = []
    original = TaskRunner.map

    def spy(self, function, tasks, *args, **kwargs):
        tasks = list(tasks)
        if function is service_module._extract_chunk:
            calls.append([len(chunk) for chunk in tasks])
        return original(self, function, tasks, *args, **kwargs)

    monkeypatch.setattr(TaskRunner, "map", spy)
    return calls


@pytest.fixture
def cohort(serve_dataset):
    return serve_dataset.po_matchers + serve_dataset.oaei_matchers


def _assert_balanced(sizes, n, n_chunks):
    assert len(sizes) == n_chunks
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1


def test_serial_extracts_one_chunk(offline_model, cohort, chunk_sizes):
    CharacterizationService(offline_model, runtime="serial").score_batch(cohort)
    assert chunk_sizes == [[len(cohort)]]


def test_process_extracts_one_balanced_chunk_per_worker(offline_model, cohort, chunk_sizes):
    CharacterizationService(offline_model, runtime="process:2").score_batch(cohort)
    assert len(chunk_sizes) == 1
    _assert_balanced(chunk_sizes[0], len(cohort), 2)


def test_call_inside_a_worker_extracts_one_chunk(offline_model, cohort, chunk_sizes, monkeypatch):
    monkeypatch.setattr(runner_module, "in_worker", lambda: True)
    CharacterizationService(offline_model, runtime="process:2").score_batch(cohort)
    assert chunk_sizes == [[len(cohort)]]


@pytest.mark.parametrize(
    "runtime, limit, n_chunks",
    [("serial", 4, 6), ("serial", 20, 2), ("process:2", 4, 6), ("thread:4", 20, 4)],
)
def test_large_batches_split_by_max_chunk_matchers(
    offline_model, cohort, chunk_sizes, monkeypatch, runtime, limit, n_chunks
):
    """``max(W, ceil(n / MAX_CHUNK_MATCHERS))`` balanced chunks (n = 21 here)."""
    monkeypatch.setattr(service_module, "MAX_CHUNK_MATCHERS", limit)
    CharacterizationService(offline_model, runtime=runtime).score_batch(cohort)
    assert len(chunk_sizes) == 1
    _assert_balanced(chunk_sizes[0], len(cohort), n_chunks)


def test_explicit_chunk_size_keeps_its_meaning(offline_model, cohort, chunk_sizes):
    service = CharacterizationService(offline_model, chunk_size=5)
    service.score_batch(cohort)
    service.score_batch(cohort[:7], chunk_size=3)
    assert chunk_sizes == [[5, 5, 5, 6], [3, 4]]


@pytest.mark.parametrize("n, n_chunks", [(1, 4), (2, 2), (3, 2), (5, 2), (9, 4), (10, 3), (7, 1)])
def test_balanced_chunks_keep_order_and_avoid_singletons(n, n_chunks):
    items = list(range(n))
    chunks = _balanced(items, n_chunks)
    assert [item for chunk in chunks for item in chunk] == items
    sizes = [len(chunk) for chunk in chunks]
    assert max(sizes) - min(sizes) <= 1
    assert n == 1 or min(sizes) >= 2
    assert len(chunks) == max(1, min(n_chunks, n // 2))


def test_scores_bitwise_equal_across_chunk_plans(offline_model, cohort):
    expected_labels = offline_model.predict(cohort)
    expected_probabilities = offline_model.predict_proba(cohort)
    plans = [
        {"runtime": "serial"},
        {"runtime": "process:1"},
        {"runtime": "process:2"},
        {"runtime": "thread:2"},
        {"runtime": "serial", "chunk_size": 2},
        {"runtime": "process:2", "chunk_size": 5},
    ]
    for plan in plans:
        scores = CharacterizationService(offline_model, **plan).score_batch(cohort)
        assert np.array_equal(scores.labels, expected_labels), plan
        assert np.array_equal(scores.probabilities, expected_probabilities), plan


@pytest.mark.parametrize("runtime, n_chunks", [("serial", 1), ("thread:2", 2), ("process:2", 2)])
def test_cache_counts_each_lookup_once(offline_model, cohort, runtime, n_chunks):
    """A cold batch misses once per (chunk, set) and hits nothing: re-inserting
    the blocks is not a lookup, and process workers' lookups are counted."""
    service = CharacterizationService(offline_model, runtime=runtime, cache=FeatureBlockCache())
    service.score_batch(cohort)
    lookups = n_chunks * len(offline_model.pipeline.include)
    stats = service.cache.stats()
    assert (stats["hits"], stats["misses"], stats["entries"]) == (0, lookups, lookups)
    service.score_batch(cohort)
    stats = service.cache.stats()
    assert (stats["hits"], stats["misses"], stats["entries"]) == (lookups, lookups, lookups)


def test_cold_batch_counts_no_hit_in_metrics(offline_model, cohort):
    with obs.obs_override(True), obs.use_registry() as registry:
        CharacterizationService(
            offline_model, runtime="serial", cache=FeatureBlockCache()
        ).score_batch(cohort)
    lookups = registry.get("repro_feature_cache_total")
    assert lookups.value(outcome="hit") == 0
    assert lookups.value(outcome="miss") == len(offline_model.pipeline.include)


@pytest.mark.parametrize("runtime", ["serial", "process:2"])
def test_services_on_one_model_keep_their_own_caches(offline_model, cohort, runtime):
    first = CharacterizationService(offline_model, runtime=runtime, cache=FeatureBlockCache())
    second = CharacterizationService(offline_model, runtime=runtime, cache=FeatureBlockCache())
    first.score_batch(cohort)
    assert first.info()["cache"]["entries"] > 0
    assert first.info()["cache"]["misses"] > 0
    assert second.info()["cache"]["entries"] == 0
    assert second.info()["cache"]["misses"] == 0
    assert offline_model.pipeline.cache is None


def test_consensus_fingerprint_survives_bundle_round_trip(offline_model, tmp_path):
    consensus = offline_model.pipeline._extractors["beh"].consensus
    loaded = load_model(save_model(offline_model, tmp_path / "bundle"))
    assert loaded.pipeline._extractors["beh"].consensus.fingerprint() == consensus.fingerprint()


def test_process_batches_are_counted_once(offline_model, cohort):
    """Three ``process:2`` batches read three batches, not the forked parent's counts too."""
    service = CharacterizationService(offline_model, runtime="process:2", chunk_size=4)
    with obs.obs_override(True), obs.use_registry() as registry:
        for _ in range(3):
            service.score_batch(cohort[:12])
    assert registry.get("repro_score_batches_total").value() == 3
    assert registry.get("repro_score_matchers_total").value() == 36

"""The derived extraction chunk plan of ``CharacterizationService.score_batch``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
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
    [("serial", 4, 6), ("serial", 20, 2), ("process:2", 4, 6), ("process:4", 20, 4)],
)
def test_large_batches_split_by_max_chunk_matchers(
    offline_model, cohort, chunk_sizes, monkeypatch, runtime, limit, n_chunks
):
    """``max(W, ceil(n / MAX_CHUNK_MATCHERS))`` balanced chunks (n = 21 here)."""
    monkeypatch.setattr(service_module, "MAX_CHUNK_MATCHERS", limit)
    CharacterizationService(offline_model, runtime=runtime).score_batch(cohort)
    assert len(chunk_sizes) == 1
    _assert_balanced(chunk_sizes[0], len(cohort), n_chunks)


@pytest.mark.parametrize("n, n_chunks", [(1, 4), (2, 2), (3, 2), (5, 2), (9, 4), (10, 3), (7, 1)])
def test_balanced_chunks_keep_order_and_avoid_singletons(n, n_chunks):
    items = list(range(n))
    chunks = _balanced(items, n_chunks)
    assert [item for chunk in chunks for item in chunk] == items
    sizes = [len(chunk) for chunk in chunks]
    assert max(sizes) - min(sizes) <= 1
    assert n == 1 or min(sizes) >= 2
    assert len(chunks) == max(1, min(n_chunks, n // 2))


def test_scores_bitwise_equal_across_chunk_plans(offline_model, cohort, monkeypatch):
    expected_labels = offline_model.predict(cohort)
    expected_probabilities = offline_model.predict_proba(cohort)
    default = service_module.MAX_CHUNK_MATCHERS
    plans = [
        ("serial", default),
        ("process:1", default),
        ("process:2", default),
        ("serial", 2),
        ("process:2", 5),
    ]
    for plan in plans:
        runtime, max_chunk = plan
        monkeypatch.setattr(service_module, "MAX_CHUNK_MATCHERS", max_chunk)
        scores = CharacterizationService(offline_model, runtime=runtime).score_batch(cohort)
        assert np.array_equal(scores.labels, expected_labels), plan
        assert np.array_equal(scores.probabilities, expected_probabilities), plan


def test_consensus_fingerprint_survives_bundle_round_trip(offline_model, tmp_path):
    consensus = offline_model.pipeline._extractors["beh"].consensus
    loaded = load_model(save_model(offline_model, tmp_path / "bundle"))
    assert loaded.pipeline._extractors["beh"].consensus.fingerprint() == consensus.fingerprint()


def test_process_batches_are_counted_once(offline_model, cohort, monkeypatch):
    """Three ``process:2`` batches read three batches, not the forked parent's counts too."""
    monkeypatch.setattr(service_module, "MAX_CHUNK_MATCHERS", 4)
    service = CharacterizationService(offline_model, runtime="process:2")
    with obs.obs_override(True), obs.use_registry() as registry:
        for _ in range(3):
            service.score_batch(cohort[:12])
    assert registry.get("repro_score_batches_total").value() == 3
    assert registry.get("repro_score_matchers_total").value() == 36

"""CharacterizationService: bitwise equivalence with in-memory prediction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.expert_model import EXPERT_CHARACTERISTICS
from repro.ml.naive_bayes import GaussianNB
from repro.serve.artifacts import ArtifactError, save_model
from repro.serve.service import CharacterizationService, _chunked


@pytest.fixture(scope="module")
def offline_bundle(offline_model, tmp_path_factory):
    return save_model(offline_model, tmp_path_factory.mktemp("bundles") / "offline")


@pytest.fixture(scope="module")
def expected(offline_model, serve_dataset):
    cohort = serve_dataset.oaei_matchers
    return offline_model.predict(cohort), offline_model.predict_proba(cohort)


@pytest.mark.parametrize("backend", ["serial", "thread:2", "process:2"])
@pytest.mark.parametrize("chunk_size", [2, 3, 64])
def test_service_matches_in_memory_predictions(
    offline_bundle, serve_dataset, expected, backend, chunk_size
):
    """Bundle-loaded, chunked, parallel scoring == in-memory predict, bitwise."""
    labels, probabilities = expected
    service = CharacterizationService.from_bundle(
        offline_bundle, runtime=backend, chunk_size=chunk_size
    )
    result = service.score_batch(serve_dataset.oaei_matchers)
    assert result.matcher_ids == tuple(m.matcher_id for m in serve_dataset.oaei_matchers)
    assert np.array_equal(result.labels, labels)
    assert np.array_equal(result.probabilities, probabilities)


@pytest.mark.parametrize("chunk_size", [3, 64])
def test_process_backend_matches_serial_bitwise(offline_bundle, serve_dataset, chunk_size):
    """The model pickled into process workers scores exactly like serial."""
    serial = CharacterizationService.from_bundle(
        offline_bundle, runtime="serial", chunk_size=chunk_size
    ).score_batch(serve_dataset.oaei_matchers)
    pooled = CharacterizationService.from_bundle(
        offline_bundle, runtime="process:2", chunk_size=chunk_size
    ).score_batch(serve_dataset.oaei_matchers)
    assert pooled.matcher_ids == serial.matcher_ids
    assert np.array_equal(pooled.labels, serial.labels)
    assert np.array_equal(pooled.probabilities, serial.probabilities)


def test_service_neural_model_matches_in_memory(neural_model, serve_dataset, tmp_path):
    """The full five-set model scores identically through the service."""
    bundle = save_model(neural_model, tmp_path / "neural")
    cohort = serve_dataset.oaei_matchers
    service = CharacterizationService.from_bundle(bundle, chunk_size=3)
    result = service.score_batch(cohort)
    assert np.array_equal(result.labels, neural_model.predict(cohort))
    assert np.array_equal(result.probabilities, neural_model.predict_proba(cohort))


def test_service_wraps_in_memory_model(offline_model, serve_dataset, expected):
    labels, probabilities = expected
    service = CharacterizationService(offline_model, chunk_size=2)
    result = service.score_batch(serve_dataset.oaei_matchers)
    assert np.array_equal(result.labels, labels)
    assert np.array_equal(result.probabilities, probabilities)


def test_service_empty_population(offline_bundle):
    result = CharacterizationService.from_bundle(offline_bundle).score_batch([])
    assert result.n_matchers == 0
    assert result.labels.shape == (0, len(EXPERT_CHARACTERISTICS))
    assert result.probabilities.shape == (0, len(EXPERT_CHARACTERISTICS))


def test_batch_scores_blocks(offline_bundle, serve_dataset, expected):
    labels, probabilities = expected
    result = CharacterizationService.from_bundle(offline_bundle).score_batch(
        serve_dataset.oaei_matchers
    )
    label_block = result.label_block()
    assert list(label_block.names) == [f"label_{c}" for c in EXPERT_CHARACTERISTICS]
    assert np.array_equal(label_block.matrix, labels.astype(float))
    fused = result.block()
    assert fused.n_features == 2 * len(EXPERT_CHARACTERISTICS)
    assert np.array_equal(fused.matrix[:, len(EXPERT_CHARACTERISTICS) :], probabilities)
    payload = result.to_dict()
    assert len(payload["matchers"]) == result.n_matchers
    assert payload["characteristics"] == list(EXPERT_CHARACTERISTICS)


@pytest.mark.parametrize("runtime", ["serial", "process:2"])
def test_service_scores_without_a_cache(offline_model, serve_dataset, expected, runtime):
    """Scoring looks nothing up, not even in a cache the model carries or
    one the caller passes, and re-scoring equals the first score."""
    from repro.core.features.cache import FeatureBlockCache

    labels, probabilities = expected
    shared, passed = FeatureBlockCache(), FeatureBlockCache()
    offline_model.pipeline.cache = shared
    try:
        service = CharacterizationService(
            offline_model, runtime=runtime, chunk_size=3, cache=passed
        )
        for _ in range(2):
            result = service.score_batch(serve_dataset.oaei_matchers)
            assert np.array_equal(result.labels, labels)
            assert np.array_equal(result.probabilities, probabilities)
    finally:
        offline_model.pipeline.cache = None
    for cache in (shared, passed):
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 0, 0)
    assert "cache" not in service.info()


def test_characterize_matches_separate_passes(offline_model, serve_dataset, expected):
    """The single-pass characterize() equals predict + predict_proba bitwise."""
    labels, probabilities = expected
    single_labels, single_probabilities = offline_model.characterize(
        serve_dataset.oaei_matchers
    )
    assert np.array_equal(single_labels, labels)
    assert np.array_equal(single_probabilities, probabilities)


def test_service_rejects_non_characterizer_bundle(classification_data, tmp_path):
    X, y, _ = classification_data
    bundle = save_model(GaussianNB().fit(X, y), tmp_path / "nb")
    with pytest.raises(ArtifactError, match="serves MExICharacterizer"):
        CharacterizationService.from_bundle(bundle)


def test_service_rejects_unfitted_model():
    from repro.core.characterizer import MExICharacterizer

    with pytest.raises(ValueError, match="fitted"):
        CharacterizationService(MExICharacterizer())


def test_chunker_never_emits_trailing_singleton():
    """Chunk grouping merges a trailing singleton (batch-1 BLAS dispatch guard)."""
    items = list(range(7))
    chunks = _chunked(items, 3)
    assert [len(chunk) for chunk in chunks] == [3, 4]
    assert [item for chunk in chunks for item in chunk] == items
    assert _chunked(list(range(6)), 3) == [[0, 1, 2], [3, 4, 5]]
    assert _chunked([0], 3) == [[0]]
    assert [len(c) for c in _chunked(list(range(5)), 1)] == [1, 1, 1, 1, 1]

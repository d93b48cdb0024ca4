"""Shared fixtures for the sharded serving-layer tests.

The differential suites (`test_shard_equivalence`, `test_shard_chaos`)
compare a :class:`~repro.shard.ShardFleet` against a single
:class:`~repro.stream.SessionManager` **oracle** replaying the identical
workload — both sides score off the same fitted model, so any
divergence is the fleet's fault, not the model's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.serve import service as service_module
from repro.serve.service import BatchScores, CharacterizationService
from repro.simulation.dataset import build_dataset


@pytest.fixture(scope="session")
def shard_model():
    """A small offline-feature characterizer (cheap to fit and score)."""
    dataset = build_dataset(n_po_matchers=10, n_oaei_matchers=4, random_state=3)
    profiles, _ = characterize_population(dataset.po_matchers, random_state=3)
    model = MExICharacterizer(
        variant=MExIVariant.SUB_50,
        feature_sets=("lrsm", "beh", "mou"),
        random_state=3,
    )
    return model.fit(dataset.po_matchers, labels_matrix(profiles))


@pytest.fixture
def shard_service(shard_model, monkeypatch):
    """A fresh primary service per test, extracting in chunks of ~4 matchers."""
    monkeypatch.setattr(service_module, "MAX_CHUNK_MATCHERS", 4)
    return CharacterizationService(shard_model)


def assert_scores_equal(ours: BatchScores, theirs: BatchScores) -> None:
    """Bitwise equality of two scoring batches (ids, labels, probabilities)."""
    assert ours.matcher_ids == theirs.matcher_ids
    assert np.array_equal(ours.labels, theirs.labels)
    assert np.array_equal(ours.probabilities, theirs.probabilities)


def assert_sessions_equal(ours, theirs) -> None:
    """Bitwise equality of two sessions' replayable state."""
    snapshot_a, snapshot_b = ours.buffer.snapshot(), theirs.buffer.snapshot()
    for column in ("x", "y", "codes", "t"):
        assert np.array_equal(
            getattr(snapshot_a, column), getattr(snapshot_b, column)
        ), f"{ours.session_id}: buffer column {column} diverged"
    assert ours.decisions == theirs.decisions
    assert ours.shape == theirs.shape
    assert ours.screen == theirs.screen

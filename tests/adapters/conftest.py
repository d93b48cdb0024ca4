"""Shared fixtures for the ingestion-adapter tests: cohorts and a service.

The differential invariant suite needs the same small fitted model the
stream/shard suites use, so the fixtures mirror ``tests/stream`` /
``tests/shard`` (session-scoped fit, fresh service per test).
"""

from __future__ import annotations

import pytest

from repro.adapters import trace_from_matcher
from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.serve import service as service_module
from repro.serve.service import CharacterizationService
from repro.simulation.dataset import build_dataset
from repro.simulation.population import simulate_population


@pytest.fixture(scope="session")
def adapter_model():
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
def adapter_service(adapter_model, monkeypatch):
    """A fresh service per test, extracting in chunks of ~4 matchers."""
    monkeypatch.setattr(service_module, "MAX_CHUNK_MATCHERS", 4)
    return CharacterizationService(adapter_model)


@pytest.fixture(scope="session")
def cohort(small_task):
    """Five simulated matchers — the clean external workload."""
    pair, reference = small_task
    return simulate_population(
        pair, reference, n_matchers=5, random_state=17, id_prefix="ext"
    )


@pytest.fixture(scope="session")
def traces(cohort):
    """The cohort frozen as :class:`SessionTrace` records."""
    return [trace_from_matcher(matcher) for matcher in cohort]

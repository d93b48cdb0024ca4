"""Shared fixtures for the streaming-layer tests: model, service, workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.serve.artifacts import ArtifactError, load_model, save_model
from repro.serve.population import load_population, save_population
from repro.serve.service import CharacterizationService
from repro.simulation.dataset import build_dataset
from repro.stream import CheckpointError, SessionManager, load_checkpoint, save_checkpoint
from repro.stream.cli import _replay, _workload


@pytest.fixture(scope="session")
def stream_model():
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
def stream_service(stream_model):
    """A fresh service per test."""
    return CharacterizationService(stream_model, chunk_size=4)


@pytest.fixture(scope="session")
def workload():
    """Five archetype-cycled live matchers to replay as sessions."""
    return _workload(seed=3, n_sessions=5)


@pytest.fixture(scope="session")
def replayed_manager(stream_model, workload):
    """Every workload trace half streamed: committed and pending events,
    decisions and scores in every session (save it, never mutate it)."""
    manager = SessionManager(
        CharacterizationService(stream_model, chunk_size=4),
        reorder_window=1.0,
        idle_timeout=500.0,
    )
    _replay(
        manager, workload, steps=6, report_every=3, runtime=None, chunk_size=4,
        stop_after=3,
    )
    return manager


@pytest.fixture
def bundle_formats(stream_model, stream_service, workload, replayed_manager):
    """format -> (write a valid bundle at a path, read it back, the reader's error)."""
    return {
        "model": (
            lambda path: save_model(stream_model, path),
            load_model,
            ArtifactError,
        ),
        "checkpoint": (
            lambda path: save_checkpoint(replayed_manager, path),
            lambda path: load_checkpoint(path, stream_service),
            CheckpointError,
        ),
        "population": (
            lambda path: save_population(workload, path),
            load_population,
            ArtifactError,
        ),
    }


def random_trace(rng, n, screen=(768, 1024), horizon=100.0):
    """Random event columns (arrival order == time order)."""
    return (
        rng.uniform(0, screen[1], size=n),
        rng.uniform(0, screen[0], size=n),
        rng.integers(0, 4, size=n),
        np.sort(rng.uniform(0, horizon, size=n)),
    )


def jittered(columns, rng, lag):
    """Reorder a time-sorted trace so arrivals lag by at most ``lag`` seconds."""
    x, y, codes, t = columns
    order = np.argsort(t + rng.uniform(-lag, 0.0, size=t.size), kind="stable")
    return x[order], y[order], codes[order], t[order]

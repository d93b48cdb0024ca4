"""Tier-1 oracle: a replay with telemetry on is bitwise equal to off.

The telemetry plane only *observes* — it never perturbs scores, labels,
ordering, or session state.  This replays the same workload through
``repro.stream`` twice, once under ``REPRO_OBS`` enabled and once
disabled, and asserts bitwise-identical outputs (satellite 6's tier-1
assertion; the ≤5% overhead gate lives in ``benchmarks/test_bench_obs.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.obs.tracing import Tracer
from repro.serve.service import CharacterizationService
from repro.simulation.dataset import build_dataset
from repro.stream.cli import _replay, _workload
from repro.stream.session import SessionManager


@pytest.fixture(scope="module")
def model():
    dataset = build_dataset(n_po_matchers=10, n_oaei_matchers=4, random_state=3)
    profiles, _ = characterize_population(dataset.po_matchers, random_state=3)
    characterizer = MExICharacterizer(
        variant=MExIVariant.SUB_50,
        feature_sets=("lrsm", "beh", "mou"),
        random_state=3,
    )
    return characterizer.fit(dataset.po_matchers, labels_matrix(profiles))


def _run_replay(model, *, enabled: bool, runtime=None):
    with obs.obs_override(enabled), obs.use_registry() as reg, obs.use_tracer(Tracer()):
        service = CharacterizationService(model)
        manager = SessionManager(service)
        records = _replay(
            manager,
            _workload(seed=3, n_sessions=4),
            steps=4,
            report_every=2,
            runtime=runtime,
        )
        scores = {
            session_id: entry for session_id, entry in sorted(manager.scores().items())
        }
        return records, scores, reg


@pytest.mark.parametrize("runtime", [None, "process:2"])
def test_replay_bitwise_equal_with_telemetry_on(model, runtime):
    records_on, scores_on, reg_on = _run_replay(model, enabled=True, runtime=runtime)
    records_off, scores_off, reg_off = _run_replay(model, enabled=False, runtime=runtime)

    assert records_on == records_off
    assert list(scores_on) == list(scores_off)
    for session_id in scores_on:
        np.testing.assert_array_equal(
            scores_on[session_id]["labels"], scores_off[session_id]["labels"]
        )
        np.testing.assert_array_equal(
            scores_on[session_id]["probabilities"],
            scores_off[session_id]["probabilities"],
        )

    # The enabled run actually recorded telemetry; the disabled run none.
    assert reg_on.get("repro_stream_events_ingested_total") is not None
    assert reg_on.get("repro_score_batches_total") is not None
    assert reg_off.collect() == []

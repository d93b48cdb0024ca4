"""Telemetry-plane overhead benchmark: replay with obs on vs off.

One end-to-end measurement, recorded into ``.bench_out/pytest/BENCH_obs.json``:
the same seeded streaming replay (:class:`~repro.shard.ReplayDriver`
over a :class:`~repro.stream.SessionManager`) runs twice — once with the
telemetry plane enabled (metrics + spans recording into a fresh registry
and tracer) and once with ``REPRO_OBS`` disabled — and the two runs are
compared **bitwise** on final labels and probabilities.  The bitwise
assertion holds at every scale: observation must never perturb scores
(the tier-1 copy of this oracle lives in ``tests/obs/test_equivalence.py``).

Recorded numbers:

* ``replay_on_seconds`` / ``replay_off_seconds`` — best-of-N wall-clock
  for the instrumented and bare replays;
* ``overhead_pct`` — ``(on / off - 1) * 100``;
* ``spans_recorded`` / ``metric_families`` — how much telemetry the
  enabled run actually captured (a zero here would mean the benchmark
  measured nothing).

Under ``REPRO_OBS_GATES=1`` (the workflow_dispatch bench job) the
workload grows and the enabled run must stay within **5%** of the
disabled run's wall-clock; without the gate the numbers are recorded
but only the bitwise equality is enforced.
"""

import os
import time

import numpy as np

from repro import obs
from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.obs.tracing import Tracer
from repro.serve.service import CharacterizationService
from repro.shard import ReplayDriver, synthetic_traces
from repro.stream import SessionManager

#: Set to "1" to enforce the ≤5% overhead gate (the CI bench job does).
OBS_GATES_ENV_VAR = "REPRO_OBS_GATES"

#: Maximum tolerated telemetry overhead when the gate is enforced.
MAX_OVERHEAD_FRACTION = 0.05


def _gates_enforced() -> bool:
    return os.environ.get(OBS_GATES_ENV_VAR) == "1"


def _fit_service(bench_config) -> CharacterizationService:
    dataset_kwargs = dict(
        n_po_matchers=bench_config.n_po_matchers,
        n_oaei_matchers=bench_config.n_oaei_matchers,
        random_state=bench_config.random_state,
    )
    from repro.simulation.dataset import build_dataset

    dataset = build_dataset(**dataset_kwargs)
    profiles, _ = characterize_population(
        dataset.po_matchers, random_state=bench_config.random_state
    )
    model = MExICharacterizer(
        variant=MExIVariant.SUB_50,
        feature_sets=("lrsm", "beh", "mou"),
        random_state=bench_config.random_state,
    )
    model.fit(dataset.po_matchers, labels_matrix(profiles))
    return CharacterizationService(model)


def _replay(service, traces, *, enabled: bool):
    """One full replay under the given telemetry gate; returns its plane too."""
    with obs.obs_override(enabled), obs.use_registry() as registry, obs.use_tracer(
        Tracer(max_spans=65536)
    ) as tracer:
        manager = SessionManager(service)
        driver = ReplayDriver(manager, traces, steps=3, report_every=1)
        started = time.perf_counter()
        driver.run()
        final = driver.final_scores()
        elapsed = time.perf_counter() - started
    return final, elapsed, registry, tracer


def test_bench_obs_overhead(bench_config, obs_timings):
    n_sessions = 2_000 if _gates_enforced() else 128
    repeats = 3 if _gates_enforced() else 2
    service = _fit_service(bench_config)
    traces = synthetic_traces(
        n_sessions, seed=bench_config.random_state, n_events=12, n_decisions=2
    )

    on_seconds, off_seconds = [], []
    final_on = final_off = None
    registry = tracer = None
    for _ in range(repeats):
        final_off, elapsed, _, _ = _replay(service, traces, enabled=False)
        off_seconds.append(elapsed)
        final_on, elapsed, registry, tracer = _replay(service, traces, enabled=True)
        on_seconds.append(elapsed)

    # Bitwise indistinguishability — always asserted; the telemetry
    # plane observes the replay, it never steers it.
    assert final_on.matcher_ids == final_off.matcher_ids
    assert np.array_equal(final_on.labels, final_off.labels)
    assert np.array_equal(final_on.probabilities, final_off.probabilities)

    # The instrumented run really did record telemetry.
    families = registry.collect()
    spans = tracer.spans()
    assert families, "telemetry-on replay recorded no metric families"
    assert spans, "telemetry-on replay recorded no spans"

    best_on, best_off = min(on_seconds), min(off_seconds)
    overhead = best_on / best_off - 1.0
    obs_timings["n_sessions"] = float(n_sessions)
    obs_timings["replay_on_seconds"] = best_on
    obs_timings["replay_off_seconds"] = best_off
    obs_timings["overhead_pct"] = overhead * 100.0
    obs_timings["spans_recorded"] = float(len(spans))
    obs_timings["metric_families"] = float(len(families))

    print(
        f"\ntelemetry overhead: on={best_on:.3f}s off={best_off:.3f}s "
        f"({overhead * 100.0:+.2f}%), {len(spans)} spans, "
        f"{len(families)} metric families"
    )
    if _gates_enforced():
        assert overhead <= MAX_OVERHEAD_FRACTION, (
            f"telemetry overhead {overhead * 100.0:.2f}% exceeds the "
            f"{MAX_OVERHEAD_FRACTION * 100.0:.0f}% gate"
        )

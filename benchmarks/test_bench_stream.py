"""Streaming-layer benchmark: ingest throughput, live re-characterization.

Three measurements, recorded into ``.bench_out/pytest/BENCH_stream.json``:

* **sustained ingest** — events/second streamed through a
  :class:`SessionManager` (chunked arrivals into many concurrent
  sessions, incremental features maintained on every chunk);
* **incremental vs naive maintenance** — per-event feature upkeep with
  the online maintainers against the naive baseline the repo used to
  imply (rebuild the features from the full materialised trace after
  every arriving event).  The ``REPRO_STREAM_GATES=1`` environment
  (the workflow_dispatch bench job) enforces the >=3x speedup gate;
  equivalence of the two states is asserted always;
* **re-characterization latency** — wall-clock for one
  ``recharacterize()`` pass over ``N`` dirty sessions through the
  batch service (N=1000 under the gates, a reduced N in tier-1 so the
  default suite stays fast), plus the dirty-only follow-up showing the
  dirty-flag fast path.
"""

import os
import time

import numpy as np

from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.matching.events import EventArray
from repro.serve.service import CharacterizationService
from repro.simulation.dataset import build_dataset
from repro.stream import SessionFeatureState, SessionManager, StreamingEventBuffer

#: Set to "1" to enforce the wall-clock gates (the CI bench job does).
STREAM_GATES_ENV_VAR = "REPRO_STREAM_GATES"

#: Events for the incremental-vs-naive per-event comparison (the naive
#: baseline is quadratic, so this bounds the benchmark's runtime).
N_MAINTENANCE_EVENTS = 2500

SCREEN = (768, 1024)


def _gates_enforced() -> bool:
    return os.environ.get(STREAM_GATES_ENV_VAR) == "1"


def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def _random_columns(rng, n):
    return (
        rng.uniform(0, SCREEN[1], size=n),
        rng.uniform(0, SCREEN[0], size=n),
        rng.integers(0, 4, size=n),
        np.sort(rng.uniform(0, 600.0, size=n)),
    )


def test_bench_incremental_vs_naive_maintenance(stream_timings):
    """Per-event feature upkeep: online maintainers vs full recompute."""
    rng = np.random.default_rng(0)
    x, y, codes, t = _random_columns(rng, N_MAINTENANCE_EVENTS)

    def incremental():
        buffer = StreamingEventBuffer()
        state = SessionFeatureState(SCREEN)
        for index in range(N_MAINTENANCE_EVENTS):
            buffer.append(x[index], y[index], int(codes[index]), t[index])
            state.update(buffer.drain())
        return state

    def naive():
        state = None
        for index in range(1, N_MAINTENANCE_EVENTS + 1):
            trace = EventArray(
                x[:index], y[:index], codes[:index], t[:index], assume_sorted=True
            )
            state = SessionFeatureState.from_batch(trace, SCREEN)
        return state

    incremental_state, incremental_seconds = _timed(incremental)
    naive_state, naive_seconds = _timed(naive)
    speedup = naive_seconds / incremental_seconds

    # Equivalence is asserted regardless of the gates.
    np.testing.assert_array_equal(incremental_state.heat.counts, naive_state.heat.counts)
    np.testing.assert_array_equal(
        incremental_state.type_counts.counts, naive_state.type_counts.counts
    )
    np.testing.assert_allclose(
        incremental_state.motion.path_length, naive_state.motion.path_length, rtol=1e-9
    )

    stream_timings["maintenance_incremental_seconds"] = incremental_seconds
    stream_timings["maintenance_naive_seconds"] = naive_seconds
    stream_timings["maintenance_speedup"] = speedup
    stream_timings["maintenance_n_events"] = float(N_MAINTENANCE_EVENTS)
    print(
        f"per-event maintenance [{N_MAINTENANCE_EVENTS} events]: "
        f"incremental {incremental_seconds:.3f}s, naive {naive_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    if _gates_enforced():
        assert speedup >= 3.0, (
            f"incremental maintenance is only {speedup:.2f}x faster than the "
            "naive full-recompute-per-event baseline (gate: >=3x)"
        )


def test_bench_stream_ingest_and_recharacterization(bench_config, stream_timings):
    """Sustained multi-session ingest plus dirty-session re-characterization."""
    n_sessions = 1000 if _gates_enforced() else 128
    dataset = build_dataset(
        n_po_matchers=bench_config.n_po_matchers,
        n_oaei_matchers=bench_config.n_oaei_matchers,
        random_state=bench_config.random_state,
    )
    profiles, _ = characterize_population(
        dataset.po_matchers, random_state=bench_config.random_state
    )
    model = MExICharacterizer(
        variant=MExIVariant.SUB_50,
        feature_sets=("lrsm", "beh", "mou"),
        random_state=bench_config.random_state,
    )
    model.fit(dataset.po_matchers, labels_matrix(profiles))
    service = CharacterizationService(model)
    manager = SessionManager(service)

    # Cycle the cohort's traces into n_sessions distinct live sessions.
    base = dataset.po_matchers
    chunk = 64

    def ingest_all():
        n_events = 0
        for index in range(n_sessions):
            matcher = base[index % len(base)]
            session_id = f"live-{index:04d}"
            manager.open(session_id, matcher.history.shape, screen=matcher.movement.screen)
            data = matcher.movement.data
            for start in range(0, len(data), chunk):
                end = min(start + chunk, len(data))
                manager.ingest_events(
                    session_id, data.x[start:end], data.y[start:end],
                    data.codes[start:end], data.t[start:end],
                )
                n_events += end - start
            for decision in matcher.history:
                manager.add_decision(
                    session_id, decision.row, decision.col,
                    decision.confidence, decision.timestamp,
                )
        return n_events

    n_events, ingest_seconds = _timed(ingest_all)
    stream_timings["ingest_seconds"] = ingest_seconds
    stream_timings["ingest_events_per_s"] = n_events / ingest_seconds
    stream_timings["ingest_sessions_per_s"] = n_sessions / ingest_seconds
    print(
        f"ingest [{n_sessions} sessions, {n_events} events]: {ingest_seconds:.3f}s "
        f"({n_events / ingest_seconds:,.0f} events/s, "
        f"{n_sessions / ingest_seconds:.1f} sessions/s)"
    )

    assert len(manager.dirty_sessions()) == n_sessions
    scores, recharacterize_seconds = _timed(lambda: manager.recharacterize())
    assert scores.n_matchers == n_sessions
    stream_timings["recharacterize_n_sessions"] = float(n_sessions)
    stream_timings["recharacterize_seconds"] = recharacterize_seconds
    stream_timings["recharacterize_sessions_per_s"] = n_sessions / recharacterize_seconds
    print(
        f"re-characterization [{n_sessions} dirty sessions]: "
        f"{recharacterize_seconds:.3f}s "
        f"({n_sessions / recharacterize_seconds:.1f} sessions/s)"
    )

    # The dirty-flag fast path: touch 10% of the sessions, re-score only them.
    touched = [f"live-{index:04d}" for index in range(0, n_sessions, 10)]
    for session_id in touched:
        last_t = manager.session(session_id).buffer.max_timestamp
        manager.ingest_events(session_id, [1.0], [1.0], [0], [last_t + 1.0])
    dirty_scores, dirty_seconds = _timed(lambda: manager.recharacterize())
    assert dirty_scores.n_matchers == len(touched)
    stream_timings["recharacterize_dirty_only_seconds"] = dirty_seconds
    print(
        f"dirty-only re-characterization [{len(dirty_scores.matcher_ids)} of "
        f"{n_sessions} sessions]: {dirty_seconds:.3f}s"
    )

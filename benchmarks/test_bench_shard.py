"""Sharded serving benchmark: fleet-scale replay, latency, chaos, determinism.

One end-to-end measurement, recorded into ``.bench_out/pytest/BENCH_shard.json``:
a seeded synthetic workload is replayed through a multi-shard
:class:`~repro.shard.ShardFleet` — including **one injected shard death
with a checkpoint restore mid-replay** — and through a single
:class:`~repro.stream.SessionManager` oracle, and the two are compared
**bitwise** (the comparison is asserted always, at every scale; it is
the point of the sharded layer, not a perf gate).

Recorded numbers:

* ``fleet_recharacterize_p50_ms`` / ``p99_ms`` — per-pass fleet
  recharacterization latency percentiles;
* ``fleet_recharacterize_sessions_per_s`` vs
  ``single_recharacterize_sessions_per_s`` — forced full-population
  scoring throughput, fleet against the single-manager baseline.

Under ``REPRO_SHARD_GATES=1`` (the workflow_dispatch bench job) the
workload is ≥10k concurrent sessions across 4 shards and the fleet must
hold ≥0.5x the single-manager scoring throughput; the throughput gate
is skipped on single-core hosts (the fleet's extraction fan-out has
nothing to fan onto), but scale and bitwise equality are enforced
regardless.
"""

import os
import time

import numpy as np

from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.runtime.faults import injected
from repro.serve.service import CharacterizationService
from repro.shard import ReplayDriver, ShardFleet, synthetic_traces
from repro.simulation.dataset import build_dataset
from repro.stream import SessionManager

#: Set to "1" to enforce scale + throughput gates (the CI bench job does).
SHARD_GATES_ENV_VAR = "REPRO_SHARD_GATES"


def _gates_enforced() -> bool:
    return os.environ.get(SHARD_GATES_ENV_VAR) == "1"


def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def test_bench_sharded_replay_vs_single_manager(bench_config, shard_timings):
    n_sessions = 10_000 if _gates_enforced() else 384
    n_shards = 4
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
    traces = synthetic_traces(
        n_sessions, seed=bench_config.random_state, n_events=12, n_decisions=2
    )

    # --- single-manager oracle -------------------------------------- #
    oracle = SessionManager(service)
    oracle_driver = ReplayDriver(oracle, traces, steps=3, report_every=3)
    _, oracle_replay_seconds = _timed(oracle_driver.run)
    oracle_final, single_seconds = _timed(oracle_driver.final_scores)
    assert oracle_final.n_matchers == n_sessions

    # --- sharded fleet, one injected death + checkpoint restore ------ #
    extract_runtime = "process:2" if (os.cpu_count() or 1) >= 2 else None
    with ShardFleet(
        service,
        n_shards,
        seed=bench_config.random_state,
        checkpoint_root=os.path.join(
            os.environ.get("TMPDIR", "/tmp"), f"bench-shard-ckpt-{os.getpid()}"
        ),
        extract_runtime=extract_runtime,
    ) as fleet:
        driver = ReplayDriver(fleet, traces, steps=3, report_every=1, checkpoint=True)
        # Deterministic chaos: shard 2 dies at clock 2 (after the first
        # checkpointed report) and restores from its latest-good bundle.
        with injected("shard.death:keys=2@2;seed=0"):
            _, fleet_replay_seconds = _timed(driver.run)
        totals = fleet.stats()["totals"]
        assert totals["deaths"] == 1 and totals["restores"] == 1
        fleet_final, fleet_seconds = _timed(driver.final_scores)

        # Bitwise indistinguishability — asserted at every scale, with
        # the death and restore included.  This is the tentpole claim.
        assert fleet_final.matcher_ids == oracle_final.matcher_ids
        assert np.array_equal(fleet_final.labels, oracle_final.labels)
        assert np.array_equal(fleet_final.probabilities, oracle_final.probabilities)

        latencies = np.array(fleet.recharacterize_seconds)
        shard_timings["n_sessions"] = float(n_sessions)
        shard_timings["n_shards"] = float(n_shards)
        shard_timings["fleet_replay_seconds"] = fleet_replay_seconds
        shard_timings["single_replay_seconds"] = oracle_replay_seconds
        shard_timings["fleet_recharacterize_p50_ms"] = float(
            np.percentile(latencies, 50) * 1e3
        )
        shard_timings["fleet_recharacterize_p99_ms"] = float(
            np.percentile(latencies, 99) * 1e3
        )
        shard_timings["fleet_recharacterize_seconds"] = fleet_seconds
        shard_timings["single_recharacterize_seconds"] = single_seconds
        fleet_rate = n_sessions / fleet_seconds
        single_rate = n_sessions / single_seconds
        shard_timings["fleet_recharacterize_sessions_per_s"] = fleet_rate
        shard_timings["single_recharacterize_sessions_per_s"] = single_rate
        shard_timings["fleet_vs_single_throughput"] = fleet_rate / single_rate
        shard_timings["deaths_injected"] = float(totals["deaths"])
        print(
            f"sharded replay [{n_sessions} sessions, {n_shards} shards, "
            f"1 death]: fleet {fleet_rate:,.0f} sessions/s vs single "
            f"{single_rate:,.0f} sessions/s "
            f"(p50 {shard_timings['fleet_recharacterize_p50_ms']:.1f}ms, "
            f"p99 {shard_timings['fleet_recharacterize_p99_ms']:.1f}ms)"
        )

        if _gates_enforced():
            assert n_sessions >= 10_000 and n_shards >= 2
            if (os.cpu_count() or 1) >= 2:
                assert fleet_rate >= 0.5 * single_rate, (
                    f"fleet scoring throughput {fleet_rate:,.0f} sessions/s fell "
                    f"below half the single-manager baseline "
                    f"({single_rate:,.0f} sessions/s)"
                )

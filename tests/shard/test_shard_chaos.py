"""Chaos differential suite: injected shard deaths, checkpoint restores,
torn checkpoints — and the fleet still converges bitwise to the oracle.

All faults are deterministic (:mod:`repro.runtime.faults` hashes, no
wall-clock randomness): a ``shard.death`` rule keyed ``"{shard}@{clock}"``
kills a *specific* shard at a *specific* replay step, every run, so
these tests replay identically under ``-p no:randomly`` and on every
machine.
"""

import warnings

import numpy as np
import pytest

from repro.runtime.faults import ReproRuntimeWarning, injected
from repro.shard import ReplayDriver, ShardDeadError, ShardFleet, synthetic_traces
from repro.stream.session import SessionManager
from tests.shard.conftest import assert_scores_equal, assert_sessions_equal

TRACES = dict(n_events=36, n_decisions=5)


def oracle_final(service, traces, *, steps=6, report_every=2):
    oracle = SessionManager(service)
    driver = ReplayDriver(oracle, traces, steps=steps, report_every=report_every)
    driver.run()
    return oracle, driver.final_scores()


class TestShardDeath:
    def test_killed_shard_restores_and_converges(self, shard_service, tmp_path):
        """Kill one shard mid-replay; the resumed fleet's final scores equal
        an uninterrupted single-manager run, bitwise."""
        traces = synthetic_traces(16, seed=21, **TRACES)
        oracle, expected = oracle_final(shard_service, traces)
        with ShardFleet(
            shard_service, 3, seed=1, checkpoint_root=tmp_path / "ckpt"
        ) as fleet:
            driver = ReplayDriver(
                fleet, traces, steps=6, report_every=2, checkpoint=True
            )
            with injected("shard.death:keys=1@4;seed=0"):
                driver.run()
            totals = fleet.stats()["totals"]
            assert totals["deaths"] == 1
            assert totals["restores"] == 1
            assert_scores_equal(driver.final_scores(), expected)
            for session_id in fleet.session_ids():
                assert_sessions_equal(
                    fleet.session(session_id), oracle.session(session_id)
                )

    def test_death_without_checkpoints_restarts_cold_and_converges(
        self, shard_service
    ):
        """No checkpoint store: the killed shard restarts cold and the
        at-least-once replay re-creates and re-fills its sessions."""
        traces = synthetic_traces(12, seed=6, **TRACES)
        _, expected = oracle_final(shard_service, traces)
        with ShardFleet(shard_service, 2, seed=3) as fleet:
            driver = ReplayDriver(fleet, traces, steps=6, report_every=2)
            with injected("shard.death:keys=0@3;seed=0"), warnings.catch_warnings():
                warnings.simplefilter("ignore", ReproRuntimeWarning)
                driver.run()
            assert fleet.stats()["totals"]["deaths"] == 1
            assert_scores_equal(driver.final_scores(), expected)

    def test_scattered_deaths_still_converge(self, shard_service, tmp_path):
        """Probabilistic death scatter (seeded, bounded) across the run."""
        traces = synthetic_traces(14, seed=13, **TRACES)
        _, expected = oracle_final(shard_service, traces)
        with ShardFleet(
            shard_service, 4, seed=2, checkpoint_root=tmp_path / "ckpt"
        ) as fleet:
            driver = ReplayDriver(
                fleet, traces, steps=6, report_every=2, checkpoint=True
            )
            with injected("shard.death:p=0.08:times=3;seed=77"):
                driver.run()
            assert_scores_equal(driver.final_scores(), expected)

    def test_fleet_restore_resumes_from_disk(self, shard_service, tmp_path):
        """A whole-fleet restart (`ShardFleet.restore`) resumes mid-schedule
        and lands on the oracle's final scores."""
        traces = synthetic_traces(12, seed=30, **TRACES)
        _, expected = oracle_final(shard_service, traces, steps=4, report_every=2)
        root = tmp_path / "fleet"
        with ShardFleet(shard_service, 3, seed=5, checkpoint_root=root) as fleet:
            half = ReplayDriver(fleet, traces, steps=4, report_every=2, checkpoint=True)
            half.boundaries = half.boundaries[:2]
            half.run()
            fleet.checkpoint_all()
        with ShardFleet.restore(root, shard_service) as resumed:
            assert resumed.n_shards == 3
            driver = ReplayDriver(resumed, traces, steps=4, report_every=2)
            driver.run()  # cursors skip what the checkpoints already hold
            assert_scores_equal(driver.final_scores(), expected)


class TestTornCheckpoints:
    def test_torn_checkpoint_falls_back_to_previous_good(
        self, shard_service, tmp_path
    ):
        """An injected checkpoint.write tear is warned and absorbed: the
        shard's previous latest-good bundle serves the next restore."""
        traces = synthetic_traces(10, seed=41, **TRACES)
        _, expected = oracle_final(shard_service, traces)
        with ShardFleet(
            shard_service, 2, seed=7, checkpoint_root=tmp_path / "ckpt"
        ) as fleet:
            driver = ReplayDriver(fleet, traces, steps=6, report_every=2)
            driver.boundaries = driver.boundaries[:3]
            driver.run()
            fleet.checkpoint_all()  # good bundles everywhere
            with injected("checkpoint.write:p=1.0:times=1;seed=0"):
                with pytest.warns(ReproRuntimeWarning, match="previous latest-good"):
                    saved = fleet.checkpoint_all()
            assert saved == fleet.n_shards - 1  # one tear, others saved
            failures = sum(
                shard.get("checkpoint_failures", 0)
                for shard in fleet.stats()["shards"]
            )
            assert failures == 1
            assert fleet.stats()["totals"]["checkpoint_failures"] == 1
            # Kill both shards: each restores from its latest good bundle.
            for shard in range(fleet.n_shards):
                fleet._workers[shard].kill()
            tail = ReplayDriver(fleet, traces, steps=6, report_every=2)
            tail.run()  # re-delivers everything the restores rewound
            assert_scores_equal(tail.final_scores(), expected)


class TestDeadShardPolicy:
    def test_auto_restore_disabled_surfaces_dead_shards(self, shard_service):
        traces = synthetic_traces(6, seed=2, n_events=12, n_decisions=2)
        with ShardFleet(shard_service, 2, seed=1, auto_restore=False) as fleet:
            for trace in traces:
                fleet.open(trace.session_id, trace.shape, screen=trace.screen)
            victim = fleet.router.route(traces[0].session_id)
            fleet._workers[victim].kill()
            with pytest.raises(ShardDeadError):
                fleet.ingest_events(
                    traces[0].session_id,
                    traces[0].x, traces[0].y, traces[0].codes, traces[0].t,
                )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ReproRuntimeWarning)
                fleet.restore_shard(victim)  # cold (no store) but explicit
            assert fleet.healthz()["status"] == "ok"

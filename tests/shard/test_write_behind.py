"""Write-behind shard queues: drained once per delivery round, invisible to reads.

A dispatch only enqueues; each shard drains its queue when the replay
driver flushes the fleet at the end of a delivery round, or when a read
(``session``, ``in``, ``stats``, …) touches the shard.  These tests pin
that contract: the drain count per round, convergence when queues are
smaller than a round's dispatches, and read-your-writes.
"""

from collections import Counter

import numpy as np

from repro.runtime.faults import injected
from repro.shard import ReplayDriver, ShardFleet, synthetic_traces
from repro.shard.worker import ShardWorker
from repro.stream.session import SessionManager
from tests.shard.conftest import assert_scores_equal, assert_sessions_equal


def _oracle(service, traces, **schedule):
    oracle = SessionManager(service)
    driver = ReplayDriver(oracle, traces, **schedule)
    driver.run()
    return oracle, driver.final_scores()


class TestDrainCadence:
    def test_each_shard_drains_at_most_once_per_delivery_round(
        self, shard_service, tmp_path, monkeypatch
    ):
        rounds = [0]
        drains: Counter = Counter()
        deliver_round = ReplayDriver._deliver_round
        drain = ShardWorker.drain

        def counting_round(self, *args):
            rounds[0] += 1
            return deliver_round(self, *args)

        def counting_drain(self, *args, **kwargs):
            drains[(rounds[0], self.shard_id)] += 1
            return drain(self, *args, **kwargs)

        monkeypatch.setattr(ReplayDriver, "_deliver_round", counting_round)
        monkeypatch.setattr(ShardWorker, "drain", counting_drain)
        traces = synthetic_traces(24, seed=12, n_events=40, n_decisions=5)
        with ShardFleet(
            shard_service, 3, seed=1, checkpoint_root=tmp_path / "ckpt"
        ) as fleet:
            driver = ReplayDriver(fleet, traces, steps=6, report_every=2, checkpoint=True)
            with injected("shard.death:keys=1@4;seed=0"):
                driver.run()
            assert fleet.stats()["totals"]["deaths"] == 1
        assert rounds[0] > len(driver.boundaries)  # verification rounds ran too
        assert drains and max(drains.values()) == 1
        # Every drain a round made came from that round's flush: far fewer
        # drains than dispatches.
        dispatches = driver.summary.delivered_events + driver.summary.delivered_decisions
        assert sum(drains.values()) <= fleet.n_shards * rounds[0] < dispatches


class TestSmallQueues:
    def test_queues_smaller_than_a_round_still_converge_bitwise(self, shard_service):
        """More sessions per shard than queue slots: rejections flush early,
        the driver re-reads cursors, and the fleet lands on the oracle."""
        traces = synthetic_traces(18, seed=19, n_events=30, n_decisions=4)
        oracle, expected = _oracle(shard_service, traces, steps=5, report_every=1)
        with ShardFleet(shard_service, 2, seed=3, queue_slots=2) as fleet:
            driver = ReplayDriver(fleet, traces, steps=5, report_every=1)
            driver.run()  # raises "did not converge" if rejections stall it
            assert fleet.stats()["totals"]["rejected_batches"] > 0
            assert_scores_equal(driver.final_scores(), expected)
            for session_id in fleet.session_ids():
                assert_sessions_equal(
                    fleet.session(session_id), oracle.session(session_id)
                )


class TestReadYourWrites:
    def test_dispatch_only_enqueues(self, shard_service):
        trace = synthetic_traces(1, seed=2, n_events=10, n_decisions=1)[0]
        with ShardFleet(shard_service, 2, seed=1) as fleet:
            fleet.open(trace.session_id, trace.shape, screen=trace.screen)
            worker = fleet._workers[fleet.router.route(trace.session_id)]
            assert fleet.ingest_events(
                trace.session_id, trace.x, trace.y, trace.codes, trace.t
            )
            assert worker.queue_depth == 1
            assert len(worker.manager.session(trace.session_id).buffer) == 0

    def test_add_decision_then_session_sees_the_decision(self, shard_service):
        trace = synthetic_traces(1, seed=6, n_events=8, n_decisions=2)[0]
        with ShardFleet(shard_service, 3, seed=2) as fleet:
            fleet.open(trace.session_id, trace.shape, screen=trace.screen)
            assert fleet.add_decision(
                trace.session_id, int(trace.d_rows[0]), int(trace.d_cols[0]),
                float(trace.d_conf[0]), float(trace.d_t[0]),
            )
            session = fleet.session(trace.session_id)
            assert len(session.decisions) == 1
            assert session.decisions[0].timestamp == float(trace.d_t[0])
            assert fleet.ingest_events(
                trace.session_id, trace.x, trace.y, trace.codes, trace.t
            )
            assert np.array_equal(
                fleet.session(trace.session_id).buffer.snapshot().t, trace.t
            )
            assert fleet.stats()["totals"]["processed_batches"] == 2

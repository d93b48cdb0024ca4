"""The defining tentpole property: a sharded fleet is bitwise-indistinguishable
from a single-`SessionManager` oracle replaying the identical workload.

Every test here is differential: the same seeded synthetic traces are
driven through a :class:`ShardFleet` and through a bare
:class:`SessionManager` (scored in the fleet's canonical sorted-id
order), and the reports are compared **bitwise** — ids, labels *and*
float probabilities — across shard counts, window chunkings, chunk
sizes, rebalances and extraction runtimes.
"""

import numpy as np
import pytest

from repro.serve import service as service_module
from repro.serve.service import CharacterizationService
from repro.shard import ReplayDriver, ShardFleet, synthetic_traces
from repro.stream.session import SessionManager
from tests.shard.conftest import assert_scores_equal, assert_sessions_equal


def run_oracle(service, traces, *, steps, report_every=1):
    oracle = SessionManager(service)
    driver = ReplayDriver(oracle, traces, steps=steps, report_every=report_every)
    reports = driver.run()
    return oracle, reports, driver.final_scores()


def run_fleet(service, traces, *, n_shards, steps, report_every=1, **fleet_kwargs):
    fleet = ShardFleet(service, n_shards, **fleet_kwargs)
    try:
        driver = ReplayDriver(fleet, traces, steps=steps, report_every=report_every)
        reports = driver.run()
        return fleet, reports, driver.final_scores()
    except BaseException:
        fleet.close()
        raise


class TestShardedEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("workload_seed", [0, 17])
    def test_reports_bitwise_equal_across_shard_counts(
        self, shard_service, n_shards, workload_seed
    ):
        traces = synthetic_traces(
            14, seed=workload_seed, n_events=40, n_decisions=5
        )
        _, oracle_reports, oracle_final = run_oracle(
            shard_service, traces, steps=4, report_every=2
        )
        fleet, fleet_reports, fleet_final = run_fleet(
            shard_service, traces, n_shards=n_shards, steps=4, report_every=2,
            seed=workload_seed,
        )
        with fleet:
            assert len(fleet_reports) == len(oracle_reports)
            assert any(scores.n_matchers for scores in oracle_reports)
            for ours, theirs in zip(fleet_reports, oracle_reports):
                assert_scores_equal(ours, theirs)
            assert_scores_equal(fleet_final, oracle_final)

    @pytest.mark.parametrize("steps", [1, 3, 7])
    def test_window_chunking_does_not_matter(self, shard_service, steps):
        """Different dispatch batchings of the same events, same scores."""
        traces = synthetic_traces(10, seed=5, n_events=36, n_decisions=4)
        _, _, oracle_final = run_oracle(shard_service, traces, steps=steps)
        fleet, _, fleet_final = run_fleet(
            shard_service, traces, n_shards=3, steps=steps
        )
        with fleet:
            assert fleet_final.n_matchers == 10
            assert_scores_equal(fleet_final, oracle_final)

    @pytest.mark.parametrize("chunk_size", [2, 3, 5])
    def test_extraction_chunk_size_does_not_matter(self, shard_model, chunk_size, monkeypatch):
        """The serving layer's chunk-equivalence contract survives sharding."""
        monkeypatch.setattr(service_module, "MAX_CHUNK_MATCHERS", chunk_size)
        traces = synthetic_traces(9, seed=2, n_events=32, n_decisions=4)
        service = CharacterizationService(shard_model)
        _, oracle_reports, _ = run_oracle(service, traces, steps=3)
        fleet, fleet_reports, _ = run_fleet(service, traces, n_shards=2, steps=3)
        with fleet:
            for ours, theirs in zip(fleet_reports, oracle_reports):
                assert_scores_equal(ours, theirs)

    def test_session_state_matches_oracle_after_replay(self, shard_service):
        traces = synthetic_traces(12, seed=9, n_events=30, n_decisions=4)
        oracle, _, _ = run_oracle(shard_service, traces, steps=3)
        fleet, _, _ = run_fleet(shard_service, traces, n_shards=4, steps=3)
        with fleet:
            assert sorted(oracle.session_ids()) == fleet.session_ids()
            for session_id in fleet.session_ids():
                assert_sessions_equal(
                    fleet.session(session_id), oracle.session(session_id)
                )

    @pytest.mark.parametrize("extract_runtime", ["process:2", "process:3"])
    def test_parallel_extraction_is_bitwise_identical(
        self, shard_service, extract_runtime
    ):
        traces = synthetic_traces(12, seed=4, n_events=30, n_decisions=4)
        _, _, oracle_final = run_oracle(shard_service, traces, steps=2)
        fleet, _, fleet_final = run_fleet(
            shard_service, traces, n_shards=3, steps=2, extract_runtime=extract_runtime
        )
        with fleet:
            assert_scores_equal(fleet_final, oracle_final)

    def test_rebalance_preserves_equivalence(self, shard_service):
        """Grow 2→4 mid-replay: moved sessions keep state; scores stay equal."""
        traces = synthetic_traces(16, seed=8, n_events=40, n_decisions=5)
        oracle = SessionManager(shard_service)
        oracle_driver = ReplayDriver(oracle, traces, steps=4, report_every=2)
        with ShardFleet(shard_service, 2, seed=8) as fleet:
            fleet_driver = ReplayDriver(fleet, traces, steps=4, report_every=2)
            # First half on 2 shards.
            for driver in (oracle_driver, fleet_driver):
                driver.boundaries, full = driver.boundaries[:2], driver.boundaries
                driver.run()
                driver.boundaries = full
            moved = fleet.rebalance(4)
            assert 0 < len(moved) < len(traces)  # ≈ half the ring stayed put
            # Second half on 4 shards.
            for driver in (oracle_driver, fleet_driver):
                driver.boundaries = driver.boundaries[2:]
                driver.run()
            assert_scores_equal(
                fleet_driver.final_scores(), oracle_driver.final_scores()
            )

    def test_idle_eviction_is_placement_independent(self, shard_service):
        traces = synthetic_traces(10, seed=3, n_events=24, n_decisions=3, horizon=50.0)
        oracle = SessionManager(shard_service, idle_timeout=20.0)
        with ShardFleet(shard_service, 3, idle_timeout=20.0) as fleet:
            for target in (oracle, fleet):
                driver = ReplayDriver(target, traces, steps=2)
                driver.run()
            assert sorted(oracle.evict_idle(now=80.0)) == sorted(fleet.evict_idle(now=80.0))
            assert fleet.session_ids() == sorted(oracle.session_ids())


class TestReplayGoals:
    def test_each_window_delivers_up_to_its_searchsorted_goal(self, shard_service):
        """Goals computed once per boundary set equal the per-window
        ``searchsorted`` of each trace, also after ``boundaries`` is replaced."""
        traces = synthetic_traces(6, seed=9, n_events=20, n_decisions=4)
        manager = SessionManager(shard_service)
        driver = ReplayDriver(manager, traces, steps=5)
        full = driver.boundaries
        for end in range(len(full)):
            driver.boundaries = full[end : end + 1]
            driver.run()
            for trace in traces:
                session = manager.session(trace.session_id)
                assert len(session.buffer) == np.searchsorted(trace.t, full[end], "right")
                assert len(session.decisions) == np.searchsorted(
                    trace.d_t, full[end], "right"
                )

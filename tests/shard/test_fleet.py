"""ShardFleet unit behaviour: routing, dispatch faults, the shared primary
service, rebalance bookkeeping, ops payloads, the fleet manifest."""

import json

import pytest

from repro import obs
from repro.runtime.faults import injected
from repro.shard import (
    FLEET_MANIFEST_NAME,
    ReplayDriver,
    ShardDispatchError,
    ShardFleet,
    synthetic_traces,
)
from repro.stream import CheckpointError


@pytest.fixture
def small_fleet(shard_service):
    with ShardFleet(shard_service, 3, seed=2, queue_slots=8) as fleet:
        yield fleet


def _open_all(fleet, traces):
    for trace in traces:
        fleet.open(trace.session_id, trace.shape, screen=trace.screen)


class TestRoutingAndMembership:
    def test_sessions_live_on_their_ring_shard(self, small_fleet):
        traces = synthetic_traces(9, seed=1, n_events=4, n_decisions=1)
        _open_all(small_fleet, traces)
        assert len(small_fleet) == 9
        for trace in traces:
            shard = small_fleet.router.route(trace.session_id)
            assert trace.session_id in small_fleet._workers[shard].manager
            assert trace.session_id in small_fleet
        assert small_fleet.session_ids() == sorted(
            trace.session_id for trace in traces
        )

    def test_unknown_session_raises_keyerror(self, small_fleet):
        with pytest.raises(KeyError):
            small_fleet.session("never-opened")

    def test_rebalance_moves_about_one_nth(self, shard_service):
        traces = synthetic_traces(40, seed=6, n_events=4, n_decisions=1)
        with ShardFleet(shard_service, 4, seed=4) as fleet:
            _open_all(fleet, traces)
            moved = fleet.rebalance(5)
            assert fleet.n_shards == 5
            assert 0 < len(moved) <= len(traces) // 2
            assert len(fleet) == len(traces)  # nothing lost, nothing duplicated
            for trace in traces:  # every session on its new ring shard
                shard = fleet.router.route(trace.session_id)
                assert trace.session_id in fleet._workers[shard].manager
            # Shrinking moves only the removed shard's sessions back.
            moved_back = fleet.rebalance(4)
            assert sorted(moved_back) == moved
            assert fleet.n_shards == 4

    def test_rebalance_to_same_count_is_a_noop(self, small_fleet):
        assert small_fleet.rebalance(3) == []


class TestDispatchFaults:
    def test_transient_dispatch_faults_are_retried(self, small_fleet):
        trace = synthetic_traces(1, seed=9, n_events=6, n_decisions=0)[0]
        small_fleet.open(trace.session_id, trace.shape, screen=trace.screen)
        with injected("shard.dispatch:p=1.0:times=2;seed=0"):
            accepted = small_fleet.ingest_events(
                trace.session_id, trace.x, trace.y, trace.codes, trace.t
            )
        assert accepted
        assert small_fleet.dispatch_faults == 2
        assert len(small_fleet.session(trace.session_id).buffer) == 6

    def test_exhausted_dispatch_retries_raise(self, shard_service):
        trace = synthetic_traces(1, seed=9, n_events=6, n_decisions=0)[0]
        with ShardFleet(
            shard_service, 2, seed=1, max_dispatch_retries=1
        ) as fleet:
            fleet.open(trace.session_id, trace.shape, screen=trace.screen)
            with injected("shard.dispatch:p=1.0:times=99;seed=0"):
                with pytest.raises(ShardDispatchError, match="fault seam"):
                    fleet.ingest_events(
                        trace.session_id, trace.x, trace.y, trace.codes, trace.t
                    )
            # The failed dispatch never reached the queue.
            assert fleet.stats()["shards"][
                fleet.router.route(trace.session_id)
            ]["accepted_batches"] == 0


class TestSharedModel:
    def test_every_shard_scores_through_the_primary_service(self, small_fleet):
        assert all(
            worker.service is small_fleet._primary for worker in small_fleet._workers
        )
        assert "shared_model" not in small_fleet.stats()

    def test_close_is_idempotent(self, shard_service):
        fleet = ShardFleet(shard_service, 2)
        fleet.close()
        fleet.close()

    def test_fleet_scoring_is_counted_once(self, small_fleet):
        """Each non-empty fleet pass is one ``score_batch``: the scoring
        counters move once per report, under the fleet's own span."""
        traces = synthetic_traces(8, seed=3, n_events=10, n_decisions=2)
        with obs.obs_override(True), obs.use_registry() as registry:
            with obs.use_tracer() as tracer:
                reports = ReplayDriver(small_fleet, traces, steps=3).run()
        batches = registry.get("repro_score_batches_total").value()
        matchers = registry.get("repro_score_matchers_total").value()
        spans = tracer.spans()
        scored = [report for report in reports if report.n_matchers]
        assert len(scored) >= 2
        assert batches == len(scored)
        assert matchers == sum(report.n_matchers for report in scored)
        fleet_spans = {span.span_id for span in spans if span.name == "shard.recharacterize"}
        score_spans = [span for span in spans if span.name == "serve.score_batch"]
        assert len(score_spans) == len(scored) == len(fleet_spans)
        assert all(span.parent_id in fleet_spans for span in score_spans)


class TestOpsPayloads:
    def test_stats_totals_add_up(self, small_fleet):
        traces = synthetic_traces(8, seed=3, n_events=10, n_decisions=2)
        driver = ReplayDriver(small_fleet, traces, steps=2)
        driver.run()
        stats = small_fleet.stats()
        assert stats["n_shards"] == 3
        assert stats["n_sessions"] == 8
        assert stats["totals"]["accepted_events"] == 8 * 10 + 8 * 2
        assert stats["totals"]["processed_events"] == stats["totals"]["accepted_events"]
        assert stats["totals"]["rejected_events"] == 0
        non_empty = sum(1 for scores in driver.reports if scores.n_matchers)
        assert stats["recharacterize_latency"]["count"] == non_empty
        assert len(stats["shards"]) == 3

    def test_healthz_reports_every_shard(self, small_fleet):
        health = small_fleet.healthz()
        assert health["status"] == "ok"
        assert [entry["shard"] for entry in health["shards"]] == [0, 1, 2]

    def test_per_shard_quarantine_logs_aggregate_in_stats(self, shard_service):
        """``quarantine=True`` hands every shard its own ledger; the fleet
        totals sum them exactly and each shard's stats expose its own."""
        traces = synthetic_traces(6, seed=5, n_events=4, n_decisions=0)
        with ShardFleet(shard_service, 3, seed=2, quarantine=True) as fleet:
            _open_all(fleet, traces)
            for trace in traces:
                batch = (trace.x[:1], trace.y[:1], trace.codes[:1], trace.t[:1])
                fleet.ingest_events(trace.session_id, *batch)
                fleet.ingest_events(trace.session_id, *batch)  # exact duplicate
            fleet.flush()
            totals = fleet.stats()["totals"]["quarantined"]
            assert totals["total"] == 6
            assert totals["by_reason"]["duplicate"] == 6
            per_shard = [entry["quarantined"] for entry in fleet.stats()["shards"]]
            assert all(entry is not None for entry in per_shard)
            assert sum(entry["total"] for entry in per_shard) == 6

    def test_shared_quarantine_log_is_counted_once(self, shard_service):
        from repro.stream.quarantine import QuarantineLog

        log = QuarantineLog()
        traces = synthetic_traces(4, seed=5, n_events=4, n_decisions=0)
        with ShardFleet(shard_service, 2, seed=2, quarantine=log) as fleet:
            _open_all(fleet, traces)
            trace = traces[0]
            batch = (trace.x[:1], trace.y[:1], trace.codes[:1], trace.t[:1])
            fleet.ingest_events(trace.session_id, *batch)
            fleet.ingest_events(trace.session_id, *batch)
            fleet.flush()
            totals = fleet.stats()["totals"]["quarantined"]
            assert totals["total"] == log.total == 1

    def test_no_quarantine_log_reports_none(self, small_fleet):
        assert small_fleet.stats()["totals"]["quarantined"] is None

    def test_fleet_scores_merge_sorted(self, small_fleet):
        traces = synthetic_traces(7, seed=8, n_events=16, n_decisions=3)
        driver = ReplayDriver(small_fleet, traces, steps=2)
        driver.run()
        scores = small_fleet.scores()
        assert list(scores) == sorted(scores)
        assert len(scores) == 7
        for entry in scores.values():
            assert entry["probabilities"].shape == (4,)


def _edit(field, value):
    def mutate(manifest):
        manifest[field] = value
        return json.dumps(manifest)

    return mutate


#: name -> parsed fleet.json -> replacement text (or bytes).
HOSTILE_FLEET_MANIFESTS = {
    "json-list": lambda manifest: "[1, 2]",
    "missing-router": lambda manifest: json.dumps(
        {key: value for key, value in manifest.items() if key != "router"}
    ),
    "router-string": _edit("router", "zzz"),
    "router-zero-shards": _edit("router", {"n_shards": 0}),
    "clock-string": _edit("clock", "x"),
    "keep-zero": _edit("keep", 0),
    "not-utf8": lambda manifest: b"\xff\xfe{",
    "deep-nesting": lambda manifest: "[" * 200_000,
}


class TestFleetManifest:
    @pytest.fixture
    def fleet_root(self, shard_service, tmp_path):
        root = tmp_path / "fleet"
        with ShardFleet(shard_service, 2, seed=3, checkpoint_root=root) as fleet:
            _open_all(fleet, synthetic_traces(4, seed=5, n_events=4, n_decisions=1))
            fleet.checkpoint_all()
        return root

    def test_manifest_round_trips_without_residue(self, fleet_root, shard_service):
        manifest = json.loads((fleet_root / FLEET_MANIFEST_NAME).read_text())
        assert manifest["router"]["n_shards"] == 2
        assert not [path for path in fleet_root.iterdir() if ".tmp" in path.name]
        with ShardFleet.restore(fleet_root, shard_service) as restored:
            assert restored.n_shards == 2
            assert len(restored) == 4

    @pytest.mark.parametrize("payload", sorted(HOSTILE_FLEET_MANIFESTS))
    def test_hostile_manifest_raises_checkpoint_error(
        self, fleet_root, shard_service, payload
    ):
        path = fleet_root / FLEET_MANIFEST_NAME
        hostile = HOSTILE_FLEET_MANIFESTS[payload](json.loads(path.read_text()))
        if isinstance(hostile, bytes):
            path.write_bytes(hostile)
        else:
            path.write_text(hostile)
        with pytest.raises(CheckpointError) as raised:
            ShardFleet.restore(fleet_root, shard_service)
        assert raised.type is CheckpointError

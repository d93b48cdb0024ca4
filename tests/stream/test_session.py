"""SessionManager: dirty-flagging, eviction, and live-score determinism."""

import numpy as np
import pytest

from repro.core.features import cache as cache_module
from repro.core.features import pipeline as pipeline_module
from repro.serve import service as service_module
from repro.serve.service import CharacterizationService
from repro.stream import SessionManager, load_checkpoint, save_checkpoint
from repro.stream.cli import _replay


def _feed_full_trace(manager, matcher):
    """Open a session and stream the whole trace in one step."""
    manager.open(matcher.matcher_id, matcher.history.shape, screen=matcher.movement.screen)
    data = matcher.movement.data
    manager.ingest_events(matcher.matcher_id, data.x, data.y, data.codes, data.t)
    for decision in matcher.history:
        manager.add_decision(
            matcher.matcher_id, decision.row, decision.col,
            decision.confidence, decision.timestamp,
        )


class TestLifecycle:
    def test_open_ingest_score(self, stream_service, workload):
        manager = SessionManager(stream_service)
        for matcher in workload:
            _feed_full_trace(manager, matcher)
        assert len(manager) == len(workload)
        assert len(manager.dirty_sessions()) == len(workload)
        scores = manager.recharacterize()
        assert scores.n_matchers == len(workload)
        assert not manager.dirty_sessions()
        assert set(manager.scores()) == {m.matcher_id for m in workload}

    def test_duplicate_open_rejected(self, stream_service):
        manager = SessionManager(stream_service)
        manager.open("s1", (4, 4))
        with pytest.raises(ValueError):
            manager.open("s1", (4, 4))
        with pytest.raises(ValueError):
            manager.open("s2", (0, 4))

    def test_unknown_session_raises(self, stream_service):
        manager = SessionManager(stream_service)
        with pytest.raises(KeyError):
            manager.ingest_events("ghost", [1.0], [1.0], [0], [1.0])

    def test_decisions_validated_against_shape(self, stream_service):
        manager = SessionManager(stream_service)
        manager.open("s1", (3, 3))
        with pytest.raises(ValueError):
            manager.add_decision("s1", 5, 0, 0.5, 1.0)


class TestDirtyFlagging:
    def test_only_changed_sessions_are_rescored(self, stream_service, workload):
        manager = SessionManager(stream_service)
        for matcher in workload:
            _feed_full_trace(manager, matcher)
        manager.recharacterize()
        # Nothing changed: the next pass scores nobody.
        assert manager.recharacterize().n_matchers == 0
        # Touch one session: exactly that one is re-extracted and rescored.
        target = workload[0].matcher_id
        last_t = manager.session(target).buffer.max_timestamp
        manager.ingest_events(target, [10.0], [10.0], [0], [last_t + 1.0])
        rescored = manager.recharacterize()
        assert rescored.matcher_ids == (target,)

    def test_empty_ingest_does_not_dirty(self, stream_service, workload):
        """A no-op poll (empty batch) must not force a re-characterization."""
        manager = SessionManager(stream_service)
        _feed_full_trace(manager, workload[0])
        manager.recharacterize()
        manager.ingest_events(workload[0].matcher_id, [], [], [], [])
        assert not manager.session(workload[0].matcher_id).dirty
        assert manager.recharacterize().n_matchers == 0

    def test_sessions_without_decisions_not_scoreable(self, stream_service):
        manager = SessionManager(stream_service)
        manager.open("mouse-only", (4, 4))
        manager.ingest_events("mouse-only", [1.0], [1.0], [0], [1.0])
        assert manager.session("mouse-only").dirty
        assert manager.recharacterize().n_matchers == 0
        assert manager.session("mouse-only").dirty  # stays dirty until scoreable

    def test_session_ids_restriction(self, stream_service, workload):
        manager = SessionManager(stream_service)
        for matcher in workload[:3]:
            _feed_full_trace(manager, matcher)
        chosen = workload[1].matcher_id
        scores = manager.recharacterize(session_ids=[chosen])
        assert scores.matcher_ids == (chosen,)
        assert len(manager.dirty_sessions()) == 2


@pytest.mark.parametrize("runtime", ["serial", "process:2"])
def test_recharacterize_digests_nothing(stream_model, workload, monkeypatch, runtime):
    """Live re-scoring hashes no population and no matcher: serving keeps
    no content-keyed cache."""
    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)

        return wrapper

    for module in (cache_module, pipeline_module):
        monkeypatch.setattr(
            module, "population_fingerprint", counted(cache_module.population_fingerprint)
        )
    monkeypatch.setattr(
        cache_module, "matcher_fingerprint", counted(cache_module.matcher_fingerprint)
    )
    manager = SessionManager(CharacterizationService(stream_model, runtime=runtime))
    for matcher in workload:
        _feed_full_trace(manager, matcher)
    manager.recharacterize()
    target = workload[0].matcher_id
    last_t = manager.session(target).buffer.max_timestamp
    manager.ingest_events(target, [10.0], [10.0], [0], [last_t + 1.0])
    assert manager.recharacterize().matcher_ids == (target,)
    assert manager.recharacterize(force=True).n_matchers == len(workload)
    assert calls == []


class TestEviction:
    def test_lru_eviction_drops_least_recently_updated(self, stream_service):
        evicted = []
        manager = SessionManager(
            stream_service, max_sessions=2, on_evict=lambda s: evicted.append(s.session_id)
        )
        manager.open("a", (4, 4))
        manager.open("b", (4, 4))
        manager.ingest_events("a", [1.0], [1.0], [0], [1.0])  # b is now LRU
        manager.open("c", (4, 4))
        assert manager.session_ids() == ["a", "c"]
        assert evicted == ["b"]
        assert manager.n_evicted == 1

    def test_idle_eviction_uses_event_time(self, stream_service):
        manager = SessionManager(stream_service, idle_timeout=10.0)
        manager.open("old", (4, 4))
        manager.open("fresh", (4, 4))
        manager.ingest_events("old", [1.0], [1.0], [0], [5.0])
        manager.ingest_events("fresh", [1.0], [1.0], [0], [14.0])
        assert manager.evict_idle(now=16.0) == ["old"]
        assert "fresh" in manager
        assert manager.evict_idle(now=16.0) == []

    def test_config_validation(self, stream_service):
        with pytest.raises(ValueError):
            SessionManager(stream_service, max_sessions=0)
        with pytest.raises(ValueError):
            SessionManager(stream_service, idle_timeout=0.0)
        with pytest.raises(ValueError):
            SessionManager(stream_service, reorder_window=-0.5)


class TestScoreDeterminism:
    def test_streamed_scores_equal_one_shot_service_scores(
        self, stream_model, stream_service, workload
    ):
        """Streaming a trace chunk-by-chunk changes nothing about its scores."""
        manager = SessionManager(stream_service, reorder_window=0.0)
        _replay(manager, workload, steps=7, report_every=100, runtime=None)
        for session_id in manager.session_ids():  # re-score everyone at once
            manager.session(session_id).dirty = True
        streamed = manager.recharacterize()
        assert streamed.n_matchers == len(workload)
        # One-shot: the same behaviour scored directly through a fresh
        # service, in the same (LRU) order the manager scored it.
        matchers = [
            manager.session(session_id).matcher() for session_id in streamed.matcher_ids
        ]
        direct = CharacterizationService(stream_model).score_batch(matchers)
        assert streamed.matcher_ids == direct.matcher_ids
        np.testing.assert_array_equal(streamed.labels, direct.labels)
        np.testing.assert_array_equal(streamed.probabilities, direct.probabilities)

    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_backends_bitwise_identical(self, stream_service, workload, backend, monkeypatch):
        """Live re-characterization is bitwise identical on every backend."""
        monkeypatch.setattr(service_module, "MAX_CHUNK_MATCHERS", 2)
        manager = SessionManager(stream_service)
        for matcher in workload:
            _feed_full_trace(manager, matcher)
        expected = manager.recharacterize(runtime="serial")
        for session in manager._sessions.values():  # re-dirty everything
            session.dirty = True
        scores = manager.recharacterize(runtime=backend)
        assert scores.matcher_ids == expected.matcher_ids
        np.testing.assert_array_equal(scores.labels, expected.labels)
        np.testing.assert_array_equal(scores.probabilities, expected.probabilities)


def _open_with_events(manager, matcher):
    """Open a session for ``matcher`` holding all of its events."""
    manager.open(matcher.matcher_id, matcher.history.shape, screen=matcher.movement.screen)
    data = matcher.movement.data
    manager.ingest_events(matcher.matcher_id, data.x, data.y, data.codes, data.t)


def _add_decisions(manager, matcher, window):
    for decision in matcher.history.decisions[window]:
        manager.add_decision(
            matcher.matcher_id, decision.row, decision.col,
            decision.confidence, decision.timestamp,
        )


def _assert_scores_equal(ours, theirs):
    assert ours.matcher_ids == theirs.matcher_ids
    np.testing.assert_array_equal(ours.labels, theirs.labels)
    np.testing.assert_array_equal(ours.probabilities, theirs.probabilities)


class TestHistoryMemo:
    """A session builds its DecisionHistory once per change to its decisions."""

    def test_history_is_reused_until_a_decision_arrives(self, stream_service, workload):
        manager = SessionManager(stream_service)
        matcher = workload[0]
        _open_with_events(manager, matcher)
        _add_decisions(manager, matcher, slice(0, 3))
        session = manager.session(matcher.matcher_id)
        first = session.matcher().history
        assert session.matcher().history is first
        _add_decisions(manager, matcher, slice(3, 4))
        second = session.matcher().history
        assert second is not first
        assert second.decisions == matcher.history.decisions[:4]

    def test_interleaved_decisions_and_restore_match_fresh_sessions(
        self, stream_service, workload, tmp_path
    ):
        """Scores after interleaved add_decision/recharacterize calls, and
        after a checkpoint restore, equal those of freshly built sessions."""
        live = SessionManager(stream_service)
        for matcher in workload:
            _open_with_events(live, matcher)
        delivered = 0
        for step in (2, 3, 5):
            for matcher in workload:
                _add_decisions(live, matcher, slice(delivered, delivered + step))
            delivered += step
            live.recharacterize(order="id")
            fresh = SessionManager(stream_service)
            for matcher in workload:
                _open_with_events(fresh, matcher)
                _add_decisions(fresh, matcher, slice(0, delivered))
            _assert_scores_equal(
                live.recharacterize(order="id", force=True),
                fresh.recharacterize(order="id", force=True),
            )

        restored = load_checkpoint(save_checkpoint(live, tmp_path / "ckpt"), stream_service)
        _assert_scores_equal(
            restored.recharacterize(order="id", force=True),
            fresh.recharacterize(order="id", force=True),
        )
        for matcher in workload:
            _add_decisions(restored, matcher, slice(delivered, delivered + 1))
            _add_decisions(fresh, matcher, slice(delivered, delivered + 1))
        _assert_scores_equal(
            restored.recharacterize(order="id", force=True),
            fresh.recharacterize(order="id", force=True),
        )


class TestReports:
    def test_reports_expose_incremental_state(self, stream_service, workload):
        manager = SessionManager(stream_service)
        matcher = workload[0]
        _feed_full_trace(manager, matcher)
        report = manager.reports()[matcher.matcher_id]
        assert report["n_events"] == len(matcher.movement)
        assert report["n_decisions"] == len(matcher.history)
        assert report["path_length"] == pytest.approx(
            matcher.movement.path_length(), rel=1e-9
        )
        stats = manager.stats()
        assert stats["n_sessions"] == 1
        assert stats["n_dirty"] == 1

"""Live multi-session tracking and batched re-characterization.

:class:`SessionManager` is the control plane of the streaming layer: it
tracks many concurrent matcher sessions, each one an append-friendly
event buffer plus incremental features (folded on read) and a growing
decision history, and keeps their expertise characterizations current by
re-scoring **only the sessions that changed** (dirty-flagged) in batches
through the existing :class:`~repro.serve.CharacterizationService` — so
live scoring inherits the serving layer's determinism contract: scores
are bitwise identical on every :class:`~repro.runtime.TaskRunner`
backend and chunk plan.

Capacity is bounded two ways, both opt-in:

* **LRU eviction** — with ``max_sessions`` set, ingesting into a new
  session evicts the least-recently-updated one;
* **idle eviction** — :meth:`SessionManager.evict_idle` drops sessions
  whose last activity (in *event time*, so replays behave like live
  traffic) is older than ``idle_timeout``.

Evicted sessions are handed to the optional ``on_evict`` callback before
they are dropped, which is where a checkpoint
(:func:`repro.stream.checkpoint.save_checkpoint`) or a downstream sink
plugs in.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Optional

import numpy as np

from repro import obs
from repro.matching.history import Decision, DecisionHistory
from repro.matching.matcher import HumanMatcher
from repro.matching.mouse import MovementMap
from repro.runtime import RuntimeSpec
from repro.runtime.faults import active_injector
from repro.serve.service import BatchScores, CharacterizationService
from repro.stream.incremental import SessionFeatureState
from repro.stream.ingest import StreamingEventBuffer
from repro.stream.quarantine import QuarantineLog, corrupt_event_columns

# Ingest runs once per event batch per session — resolving these through
# the registry every call dominates telemetry overhead, so the hot path
# goes through resolve-once handles instead.
_INGEST_BATCHES = obs.MetricHandle(
    "counter", "repro_stream_ingest_batches_total", "Ingest batches routed to sessions."
)
_INGESTED_EVENTS = obs.MetricHandle(
    "counter",
    "repro_stream_events_ingested_total",
    "Events accepted into session buffers (post-screening).",
)


class MatcherSession:
    """One live matcher: event buffer, incremental features, decisions, scores."""

    def __init__(
        self,
        session_id: str,
        shape: tuple[int, int],
        screen: tuple[int, int] = MovementMap.DEFAULT_SCREEN,
        reorder_window: float = 0.0,
        quarantine: Optional[QuarantineLog] = None,
    ) -> None:
        rows, cols = shape
        if rows <= 0 or cols <= 0:
            raise ValueError("session matrix shape must be positive")
        width, height = screen
        self.session_id = session_id
        self.shape = (int(rows), int(cols))
        self.screen = (int(width), int(height))
        self.buffer = StreamingEventBuffer(reorder_window=reorder_window)
        self._features = SessionFeatureState(self.screen)
        self.quarantine = quarantine
        self.decisions: list[Decision] = []
        self._history: Optional[DecisionHistory] = None  # built from decisions on read
        self.dirty = False
        self.last_activity = 0.0  # event time of the newest ingest
        self.last_labels: Optional[np.ndarray] = None
        self.last_probabilities: Optional[np.ndarray] = None
        self.n_characterizations = 0
        self._ingests = 0  # arrival counter; keys the stream.ingest fault rng

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    @property
    def features(self) -> SessionFeatureState:
        """The incremental features, folded up to the buffer's committed tail.

        Ingest only appends to the buffer; the committed events not yet
        folded are folded here, on read, in one chunk.  Scoring never
        reads these features (it materializes the buffer), so a live
        session pays for them only when it is reported or checkpointed.
        """
        tail = self.buffer.drain()
        if len(tail):
            self._features.update(tail)
        return self._features

    def ingest_events(self, x, y, codes, t) -> None:
        """Append a column batch of mouse events (features fold on read).

        With a quarantine log configured the batch goes through the
        screened path (:meth:`StreamingEventBuffer.extend_screened`):
        malformed, out-of-window and duplicate events are diverted into
        the log instead of raising, and the ``stream.ingest`` fault seam
        (when armed) appends deterministic corruption to exercise exactly
        that path.  Without a log the strict :meth:`extend` contract is
        unchanged.
        """
        before = len(self.buffer)
        if self.quarantine is not None:
            injector = active_injector()
            if injector is not None and injector.fires(
                "stream.ingest", key=self.session_id
            ):
                rng = injector.rng(
                    "stream.ingest", key=self.session_id, attempt=self._ingests
                )
                x, y, codes, t = corrupt_event_columns(
                    x, y, codes, t, rng,
                    watermark=self.buffer.watermark,
                    count=int(rng.integers(1, 4)),
                )
            self.buffer.extend_screened(
                x, y, codes, t, self.quarantine, session_id=self.session_id
            )
        else:
            self.buffer.extend(x, y, codes, t)
        self._ingests += 1
        accepted = len(self.buffer) - before
        if accepted > 0:
            self.last_activity = max(self.last_activity, self.buffer.max_timestamp)
            self.dirty = True
        if obs.obs_enabled():
            _INGEST_BATCHES().inc()
            _INGESTED_EVENTS().inc(max(accepted, 0))

    def add_decision(
        self, row: int, col: int, confidence: float, timestamp: float
    ) -> None:
        """Record one matching decision ``<(a_i, b_j), c, t>``."""
        decision = Decision(row=row, col=col, confidence=confidence, timestamp=timestamp)
        rows, cols = self.shape
        if decision.row >= rows or decision.col >= cols:
            raise ValueError(
                f"decision on pair {decision.pair} outside matrix of shape {self.shape}"
            )
        self.decisions.append(decision)
        self._history = None
        self.last_activity = max(self.last_activity, decision.timestamp)
        self.dirty = True

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #

    @property
    def scoreable(self) -> bool:
        """Whether the session has decisions to characterize yet."""
        return bool(self.decisions)

    def matcher(self) -> HumanMatcher:
        """The session frozen as a :class:`HumanMatcher` ``D = (H, G)``.

        The movement snapshot includes events still inside the reorder
        window (pending), so scoring always sees every ingested event.
        The decision history is built once per change to ``decisions``
        (:meth:`add_decision`, checkpoint restore) and shared by every
        pass until then.
        """
        if self._history is None:
            self._history = DecisionHistory(self.decisions, shape=self.shape)
        movement = MovementMap(screen=self.screen, data=self.buffer.snapshot())
        return HumanMatcher(
            matcher_id=self.session_id, history=self._history, movement=movement
        )

    def report(self) -> dict:
        """Live monitoring snapshot (incremental features, no replay)."""
        payload = self.features.report()
        payload.update(
            {
                "session_id": self.session_id,
                "n_decisions": len(self.decisions),
                "dirty": self.dirty,
                "n_pending_events": self.buffer.n_pending,
                "n_characterizations": self.n_characterizations,
            }
        )
        if self.quarantine is not None:
            payload["quarantined"] = self.quarantine.session_counts(self.session_id)
        return payload

    def __repr__(self) -> str:
        return (
            f"MatcherSession(id={self.session_id!r}, events={len(self.buffer)}, "
            f"decisions={len(self.decisions)}, dirty={self.dirty})"
        )


class SessionManager:
    """Tracks many concurrent sessions and re-characterizes the dirty ones.

    Parameters
    ----------
    service:
        The scoring backend (a loaded or in-memory
        :class:`~repro.serve.CharacterizationService`).
    max_sessions:
        LRU capacity; ``None`` means unbounded.
    idle_timeout:
        Event-time idleness (seconds) after which :meth:`evict_idle`
        drops a session; ``None`` disables idle eviction.
    reorder_window:
        Reorder window (seconds) every session's event buffer accepts.
    screen:
        Default screen resolution for new sessions.
    on_evict:
        Callback invoked with each :class:`MatcherSession` just before it
        is dropped (checkpointing hook).
    quarantine:
        A shared :class:`~repro.stream.quarantine.QuarantineLog`; when
        set, every session ingests through the screened path (malformed /
        out-of-window / duplicate events diverted instead of raising).
        ``None`` (default) keeps the strict fail-fast contract.
    """

    def __init__(
        self,
        service: CharacterizationService,
        *,
        max_sessions: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        reorder_window: float = 0.0,
        screen: tuple[int, int] = MovementMap.DEFAULT_SCREEN,
        on_evict: Optional[Callable[[MatcherSession], None]] = None,
        quarantine: Optional[QuarantineLog] = None,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        if reorder_window < 0:
            raise ValueError("reorder_window must be non-negative")
        self.service = service
        self.max_sessions = max_sessions
        self.idle_timeout = idle_timeout
        self.reorder_window = float(reorder_window)
        self.screen = screen
        self.on_evict = on_evict
        self.quarantine = quarantine
        self._sessions: "OrderedDict[str, MatcherSession]" = OrderedDict()
        self.n_evicted = 0

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def session_ids(self) -> list[str]:
        """Session ids, least-recently-updated first."""
        return list(self._sessions)

    def open(
        self,
        session_id: str,
        shape: tuple[int, int],
        screen: Optional[tuple[int, int]] = None,
    ) -> MatcherSession:
        """Create (and LRU-register) a new session.

        Raises
        ------
        ValueError
            If the session already exists.
        """
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already exists")
        session = MatcherSession(
            session_id,
            shape,
            screen=screen if screen is not None else self.screen,
            reorder_window=self.reorder_window,
            quarantine=self.quarantine,
        )
        self._sessions[session_id] = session
        self._evict_overflow()
        return session

    def session(self, session_id: str) -> MatcherSession:
        """Look up a session (without touching its LRU position).

        Raises
        ------
        KeyError
            If the session does not exist (it may have been evicted).
        """
        return self._sessions[session_id]

    def _touch(self, session_id: str) -> MatcherSession:
        session = self._sessions[session_id]
        self._sessions.move_to_end(session_id)
        return session

    def _drop(self, session_id: str) -> MatcherSession:
        session = self._sessions.pop(session_id)
        self.n_evicted += 1
        if self.on_evict is not None:
            self.on_evict(session)
        return session

    def _evict_overflow(self) -> list[str]:
        evicted = []
        while self.max_sessions is not None and len(self._sessions) > self.max_sessions:
            victim = next(iter(self._sessions))
            self._drop(victim)
            evicted.append(victim)
        return evicted

    def adopt(self, session: MatcherSession) -> MatcherSession:
        """Take ownership of an existing session (shard rebalancing hook).

        The session object is registered as-is — buffers, features,
        decisions and cached scores move wholesale, so a rebalanced
        session's future behaviour is identical to an unmoved one.  The
        adopted session is placed at the most-recently-used end and the
        manager's quarantine log (if any) replaces the session's.

        Raises
        ------
        ValueError
            If a session with the same id is already registered.
        """
        if session.session_id in self._sessions:
            raise ValueError(f"session {session.session_id!r} already exists")
        session.quarantine = self.quarantine
        self._sessions[session.session_id] = session
        self._evict_overflow()
        return session

    def release(self, session_id: str) -> MatcherSession:
        """Remove and return a session **without** evicting it.

        Unlike :meth:`evict_idle` / LRU overflow, a release is a
        transfer of ownership (shard rebalancing): the ``on_evict``
        callback does not run and ``n_evicted`` does not change.

        Raises
        ------
        KeyError
            If the session does not exist.
        """
        return self._sessions.pop(session_id)

    def evict_idle(self, now: float) -> list[str]:
        """Drop sessions idle (in event time) longer than ``idle_timeout``.

        Args
        ----
        now:
            The current stream time; a session is idle when
            ``now - last_activity > idle_timeout``.

        Returns
        -------
        list[str]
            The evicted session ids.
        """
        if self.idle_timeout is None:
            return []
        victims = [
            session_id
            for session_id, session in self._sessions.items()
            if now - session.last_activity > self.idle_timeout
        ]
        for session_id in victims:
            self._drop(session_id)
        return victims

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def ingest_events(self, session_id: str, x, y, codes, t) -> None:
        """Route a column batch of mouse events to a session (LRU-touching)."""
        self._touch(session_id).ingest_events(x, y, codes, t)

    def add_decision(
        self, session_id: str, row: int, col: int, confidence: float, timestamp: float
    ) -> None:
        """Route one matching decision to a session (LRU-touching)."""
        self._touch(session_id).add_decision(row, col, confidence, timestamp)

    # ------------------------------------------------------------------ #
    # Characterization
    # ------------------------------------------------------------------ #

    def dirty_sessions(self) -> list[MatcherSession]:
        """Scoreable sessions whose behaviour changed since their last scores."""
        return [
            session
            for session in self._sessions.values()
            if session.dirty and session.scoreable
        ]

    def recharacterize(
        self,
        *,
        runtime: RuntimeSpec = None,
        session_ids: Optional[Iterable[str]] = None,
        order: str = "lru",
        force: bool = False,
    ) -> BatchScores:
        """Score the dirty sessions in one service batch; clear their flags.

        Only sessions that changed since their last characterization (and
        have at least one decision) are re-extracted and re-scored — clean
        sessions keep their cached scores untouched.

        Args
        ----
        runtime:
            Per-call :class:`~repro.runtime.TaskRunner` override, forwarded
            to :meth:`CharacterizationService.score_batch`.  Scores are
            bitwise identical on every backend.
        session_ids:
            Restrict the pass to these sessions (still only the dirty,
            scoreable ones among them).
        order:
            Row order of the scoring batch: ``"lru"`` (default, the
            historical least-recently-updated-first order) or ``"id"``
            (sessions sorted by id).  ``"id"`` is the canonical order of
            the sharded serving layer — it is invariant under session
            placement, rebalancing and crash-restores, which is what
            makes a sharded fleet's batches bitwise comparable to this
            single-manager oracle.
        force:
            Score every scoreable session in the selection, dirty or
            not.  A forced pass puts the whole population through one
            classification batch, so two managers holding bitwise-equal
            session states produce bitwise-equal forced scores no matter
            how their earlier scoring batches were composed.

        Returns
        -------
        BatchScores
            The freshly computed scores, in the requested order (empty
            when nothing was dirty).
        """
        if order not in ("lru", "id"):
            raise ValueError(f"unknown recharacterize order {order!r}; expected 'lru' or 'id'")
        if force:
            pending = [s for s in self._sessions.values() if s.scoreable]
        else:
            pending = self.dirty_sessions()
        if session_ids is not None:
            wanted = set(session_ids)
            pending = [s for s in pending if s.session_id in wanted]
        if order == "id":
            pending.sort(key=lambda session: session.session_id)
        matchers = [session.matcher() for session in pending]
        scores = self.service.score_batch(matchers, runtime=runtime)
        for row, session in enumerate(pending):
            session.last_labels = scores.labels[row].copy()
            session.last_probabilities = scores.probabilities[row].copy()
            session.n_characterizations += 1
            session.dirty = False
        return scores

    def scores(self) -> dict[str, dict[str, np.ndarray]]:
        """Latest characterization per scored session (LRU order)."""
        return {
            session_id: {
                "labels": session.last_labels,
                "probabilities": session.last_probabilities,
            }
            for session_id, session in self._sessions.items()
            if session.last_labels is not None
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def reports(self) -> dict[str, dict]:
        """Live incremental-feature reports for every session (LRU order)."""
        return {
            session_id: session.report()
            for session_id, session in self._sessions.items()
        }

    def stats(self) -> dict:
        """Manager-level counters for monitoring."""
        sessions = self._sessions.values()
        return {
            "n_sessions": len(self._sessions),
            "n_dirty": sum(1 for s in sessions if s.dirty),
            "n_events": sum(len(s.buffer) for s in sessions),
            "n_decisions": sum(len(s.decisions) for s in sessions),
            "n_evicted": self.n_evicted,
            "max_sessions": self.max_sessions,
            "idle_timeout": self.idle_timeout,
            "reorder_window": self.reorder_window,
            "quarantined": (
                self.quarantine.counts() if self.quarantine is not None else None
            ),
        }

    def __repr__(self) -> str:
        return (
            f"SessionManager(sessions={len(self._sessions)}, "
            f"dirty={len(self.dirty_sessions())}, evicted={self.n_evicted})"
        )

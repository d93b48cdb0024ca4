"""Deterministic replay driving (:class:`ReplayDriver`) and synthetic traces.

The replay driver is the *harness half* of the sharding tentpole: it
steps a workload of per-session traces through windowed event time and
drives **either** a :class:`~repro.shard.fleet.ShardFleet` **or** a
plain single :class:`~repro.stream.SessionManager` (the oracle) through
the identical schedule — same windows, same per-window deliveries, same
report cadence.  ``tests/shard/test_shard_equivalence.py`` asserts the
two produce bitwise-identical scores; ``tests/shard/test_shard_chaos.py``
adds injected shard deaths and checkpoint restores on the fleet side
and asserts the *final* state still converges to the oracle's.

At-least-once delivery, cursor deduplication
--------------------------------------------
Delivery is **cursor-based**: for each session the driver's progress is
not a counter it trusts but the target's own state — ``len(buffer)``
committed+pending events and ``len(decisions)`` decisions.  Each
delivery round reads every cursor, dispatches ``trace[cursor:goal]``
(``goal`` is ``searchsorted(trace.t, window_end, "right")``) for every
trace, then flushes the fleet — so each shard drains its write-behind
queue once per round, and no cursor is read while a dispatch of the
round is still queued.  When a shard dies and restores from an older
checkpoint, the session's lengths *rewind*, the cursors rewind with
them, and the next round re-delivers exactly the lost tail —
at-least-once with exact-once application, with no timestamp
comparisons (so duplicate timestamps in a trace are safe).  A window's
rounds repeat until a round finds every cursor at its goal (a death
during a round can wipe earlier deliveries), bounded by
``max_redelivery_rounds``.  A backpressure rejection flushes early and
re-reads the cursors of the traces the round has not reached yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.adapters.records import DEFAULT_SCREEN, SessionTrace
from repro.serve.service import BatchScores
from repro.shard.fleet import ShardFleet
from repro.stream.session import SessionManager


def synthetic_traces(
    n_sessions: int,
    *,
    seed: int = 0,
    n_events: int = 64,
    n_decisions: int = 6,
    horizon: float = 60.0,
    shape: tuple[int, int] = (6, 6),
    screen: tuple[int, int] = DEFAULT_SCREEN,
    id_prefix: str = "session",
) -> list[SessionTrace]:
    """A seeded synthetic workload of ``n_sessions`` traces (vectorized).

    All sessions' events are drawn in one batched pass, so building a
    10k-session workload for the shard benchmark costs milliseconds, not
    a persona simulation.  Timestamps are sorted per session; ids are
    zero-padded (``session-000042``) so lexicographic order equals
    numeric order — the fleet's canonical batch order stays intuitive.
    """
    if n_sessions < 0:
        raise ValueError("n_sessions must be non-negative")
    rng = np.random.default_rng(seed)
    height, width = screen
    t = np.sort(rng.uniform(0.0, horizon, (n_sessions, n_events)), axis=1)
    x = rng.integers(0, height, (n_sessions, n_events))
    y = rng.integers(0, width, (n_sessions, n_events))
    codes = rng.integers(0, 4, (n_sessions, n_events))
    d_t = np.sort(rng.uniform(0.0, horizon, (n_sessions, n_decisions)), axis=1)
    d_rows = rng.integers(0, shape[0], (n_sessions, n_decisions))
    d_cols = rng.integers(0, shape[1], (n_sessions, n_decisions))
    d_conf = rng.uniform(0.05, 1.0, (n_sessions, n_decisions))
    pad = max(6, len(str(max(n_sessions - 1, 0))))
    return [
        SessionTrace(
            session_id=f"{id_prefix}-{index:0{pad}d}",
            shape=shape,
            x=x[index],
            y=y[index],
            codes=codes[index],
            t=t[index],
            d_rows=d_rows[index],
            d_cols=d_cols[index],
            d_conf=d_conf[index],
            d_t=d_t[index],
            screen=screen,
        )
        for index in range(n_sessions)
    ]


@dataclass
class ReplaySummary:
    """What a replay run did (for the CLI and benchmark reports)."""

    steps: int = 0
    reports: int = 0
    delivered_events: int = 0
    delivered_decisions: int = 0
    redelivery_rounds: int = 0
    checkpoints: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class ReplayDriver:
    """Step a trace workload through a fleet *or* a single manager.

    Parameters
    ----------
    target:
        A :class:`ShardFleet` or a bare :class:`SessionManager` (the
        differential oracle).  Both are driven through the identical
        window schedule; the manager is scored with ``order="id"`` —
        the fleet's canonical batch order.
    traces:
        The workload (sorted internally by session id).
    steps:
        Number of equal event-time windows.
    horizon:
        Replay end time; defaults to the latest timestamp in the
        workload (so the last window covers every trace entry).
    report_every:
        Recharacterize (and record a report) every this-many steps.
    checkpoint:
        Checkpoint the fleet after every report (fleet targets with a
        ``checkpoint_root`` only).  Aligning checkpoints with report
        boundaries keeps restored dirty-sets identical to the oracle's.
    max_redelivery_rounds:
        Upper bound on per-window delivery passes (death-storm guard).
    """

    def __init__(
        self,
        target: Union[ShardFleet, SessionManager],
        traces: Sequence[SessionTrace],
        *,
        steps: int = 8,
        horizon: Optional[float] = None,
        report_every: int = 1,
        checkpoint: bool = False,
        max_redelivery_rounds: int = 8,
    ) -> None:
        if steps < 1:
            raise ValueError("steps must be at least 1")
        if report_every < 1:
            raise ValueError("report_every must be at least 1")
        self.target = target
        self.traces = sorted(traces, key=lambda trace: trace.session_id)
        if horizon is None:
            horizon = max((trace.horizon for trace in self.traces), default=0.0)
        self.horizon = float(horizon)
        # Boundaries are half-open windows (..., end]; nudge the final
        # boundary past the horizon so "right"-side searchsorted goals
        # include events timestamped exactly at the horizon.
        edges = np.linspace(0.0, self.horizon, steps + 1)[1:]
        edges[-1] = np.nextafter(self.horizon, np.inf)
        self.boundaries = edges
        self.report_every = int(report_every)
        self.checkpoint = bool(checkpoint)
        self.max_redelivery_rounds = int(max_redelivery_rounds)
        self.reports: list[BatchScores] = []
        self.summary = ReplaySummary()
        self._is_fleet = isinstance(target, ShardFleet)

    @property
    def boundaries(self) -> np.ndarray:
        """The window ends, one per step."""
        return self._boundaries

    @boundaries.setter
    def boundaries(self, edges: np.ndarray) -> None:
        """Set the window ends and every trace's goals for each of them.

        Goal ``[i, k]`` is ``searchsorted(trace_i.t, edges[k], "right")``
        (events) or the same over ``d_t`` (decisions), computed here once
        per trace for all windows rather than per window per trace.
        """
        self._boundaries = np.asarray(edges, dtype=float)
        shape = (len(self.traces), len(self._boundaries))

        def goals(column: str) -> np.ndarray:
            return np.array(
                [
                    np.searchsorted(getattr(trace, column), self._boundaries, side="right")
                    for trace in self.traces
                ],
                dtype=np.int64,
            ).reshape(shape)

        self._event_goals = goals("t")
        self._decision_goals = goals("d_t")

    # ------------------------------------------------------------------ #
    # Target adapters (fleet vs oracle)
    # ------------------------------------------------------------------ #

    def _cursors(self, index: int) -> tuple[int, int]:
        """``(events, decisions)`` the target holds for a trace (opening it if missing)."""
        trace = self.traces[index]
        try:
            session = self.target.session(trace.session_id)
        except KeyError:
            session = self.target.open(trace.session_id, trace.shape, screen=trace.screen)
        return len(session.buffer), len(session.decisions)

    def _send(
        self, index: int, cursors: tuple[int, int], event_goal: int, decision_goal: int
    ) -> tuple[bool, bool]:
        """Dispatch one trace's missing slices; ``(sent anything, all accepted)``.

        Decisions go out as ``d_*[cursor:goal]`` in order and stop at the
        first rejection, so the applied decisions stay a prefix.
        """
        trace = self.traces[index]
        session_id = trace.session_id
        event_cursor, decision_cursor = cursors
        sent = False
        if event_cursor < event_goal:
            sent = True
            window = slice(event_cursor, event_goal)
            accepted = self.target.ingest_events(
                session_id, trace.x[window], trace.y[window],
                trace.codes[window], trace.t[window],
            )
            if accepted is not None and not accepted:
                return sent, False
            self.summary.delivered_events += event_goal - event_cursor
        for position in range(decision_cursor, decision_goal):
            sent = True
            accepted = self.target.add_decision(
                session_id,
                int(trace.d_rows[position]),
                int(trace.d_cols[position]),
                float(trace.d_conf[position]),
                float(trace.d_t[position]),
            )
            if accepted is not None and not accepted:
                return sent, False
            self.summary.delivered_decisions += 1
        return sent, True

    def _recharacterize(self, *, force: bool = False) -> BatchScores:
        if self._is_fleet:
            return self.target.recharacterize(force=force)
        return self.target.recharacterize(order="id", force=force)

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    def _deliver_round(self, event_goals: list[int], decision_goals: list[int]) -> bool:
        """One delivery round; returns whether anything was dispatched.

        Three phases: read every cursor (opening missing sessions), issue
        every dispatch, flush.  No read happens between the first and the
        last dispatch, so no shard drains mid-round and no delivery is
        computed from a cursor a shard death has since rewound.  A
        rejected dispatch (full queue) flushes early — which empties
        every queue, so the retry is accepted — and re-reads the cursors
        of the traces not yet delivered before carrying on.
        """
        sent_any = False
        start = 0
        while start < len(self.traces):
            cursors = [self._cursors(index) for index in range(start, len(self.traces))]
            rejected_at = None
            for index, cursor in enumerate(cursors, start=start):
                sent, accepted = self._send(
                    index, cursor, event_goals[index], decision_goals[index]
                )
                sent_any = sent_any or sent
                if not accepted:
                    rejected_at = index
                    break
            if self._is_fleet:
                self.target.flush()
            if rejected_at is None:
                break
            start = rejected_at
        return sent_any

    def _deliver_window(self, step: int) -> None:
        """Deliver every trace's ``[cursor, goal)`` slices; repeat to converge.

        A round that dispatched anything is followed by another round
        that re-reads the cursors; a shard death (state rewind) leaves
        cursors short of their goals and the next round re-delivers the
        difference.
        """
        event_goals = self._event_goals[:, step].tolist()
        decision_goals = self._decision_goals[:, step].tolist()
        for _ in range(self.max_redelivery_rounds):
            if not self._deliver_round(event_goals, decision_goals):
                return
            self.summary.redelivery_rounds += 1
        raise RuntimeError(
            f"window {float(self._boundaries[step])} did not converge within "
            f"{self.max_redelivery_rounds} delivery rounds"
        )

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def run(self) -> list[BatchScores]:
        """Replay the whole schedule; returns (and stores) the reports."""
        for step in range(1, len(self._boundaries) + 1):
            if self._is_fleet:
                self.target.tick()
            self._deliver_window(step - 1)
            self.summary.steps += 1
            if step % self.report_every == 0:
                self.reports.append(self._recharacterize())
                self.summary.reports += 1
                if (
                    self.checkpoint
                    and self._is_fleet
                    and self.target.checkpoint_root is not None
                ):
                    self.summary.checkpoints += self.target.checkpoint_all()
        return self.reports

    def final_scores(self) -> BatchScores:
        """One forced full-population batch (the chaos-suite comparator)."""
        return self._recharacterize(force=True)

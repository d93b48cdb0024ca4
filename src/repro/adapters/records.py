"""The neutral trace record every ingestion layer speaks (:class:`SessionTrace`).

One session's complete offline workload — mouse-event columns plus the
matching-decision columns — as a frozen struct-of-arrays record.  It was
born in :mod:`repro.shard.replay` as the replay driver's unit of work;
it lives here so the format adapters (:mod:`repro.adapters`), the
simulators (:mod:`repro.simulation`) and the sharded replay layer can
all exchange traces without the adapters importing the serving stack.
:mod:`repro.shard.replay` re-exports it unchanged.

Helpers:

* :func:`trace_from_matcher` — freeze a simulated
  :class:`~repro.matching.matcher.HumanMatcher` into a trace (the bridge
  from the persona simulators to trace files);
* :func:`merge_traces` — join event-only traces (CSV/JSONL mouse logs)
  with decision-only traces (OAEI alignment files) by session id;
* :func:`trace_fingerprint` — a keyless blake2b content fingerprint
  over a workload, byte-for-byte stable across processes.  The stream
  CLI records it in checkpoint manifests so a resume against a
  *different* input trace warns instead of silently diverging.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

#: Default logical screen for traces (MovementMap's default).
DEFAULT_SCREEN = (768, 1024)

#: Largest matrix or screen dimension an adapter accepts from a file.  A
#: trace's matrix and its default heat map are allocated densely, so a
#: header or decision index past this bound is rejected at parse time
#: instead of allocating ``dimension ** 2`` cells downstream.  It admits
#: every simulated task (the largest is 142 x 46) and a 4K screen.
MAX_DIMENSION = 4096

#: Version of the adapter trace vocabulary (recorded in checkpoint
#: manifests next to the workload fingerprint; bump on incompatible
#: changes to the record schema).
ADAPTER_TRACE_VERSION = 1


@dataclass(frozen=True)
class SessionTrace:
    """One session's full offline workload, in event-time order.

    ``x/y/codes/t`` are the mouse-event columns (``t`` ascending);
    ``d_rows/d_cols/d_conf/d_t`` are the matching decisions (``d_t``
    ascending).  The replay driver slices both by window boundaries.
    """

    session_id: str
    shape: tuple[int, int]
    x: np.ndarray
    y: np.ndarray
    codes: np.ndarray
    t: np.ndarray
    d_rows: np.ndarray
    d_cols: np.ndarray
    d_conf: np.ndarray
    d_t: np.ndarray
    screen: Optional[tuple[int, int]] = None

    @property
    def n_events(self) -> int:
        return int(self.t.size)

    @property
    def n_decisions(self) -> int:
        return int(self.d_t.size)

    @property
    def horizon(self) -> float:
        """Latest timestamp anywhere in the trace (0.0 when empty)."""
        last = 0.0
        if self.t.size:
            last = max(last, float(self.t[-1]))
        if self.d_t.size:
            last = max(last, float(self.d_t[-1]))
        return last

    def to_matcher(self):
        """The trace frozen as a :class:`~repro.matching.matcher.HumanMatcher`.

        The bridge into every offline consumer (the stream CLI's replay
        loop, batch characterization): decisions become a
        :class:`~repro.matching.history.DecisionHistory`, events a
        :class:`~repro.matching.mouse.MovementMap`.
        """
        from repro.matching.events import EventArray
        from repro.matching.history import Decision, DecisionHistory
        from repro.matching.matcher import HumanMatcher
        from repro.matching.mouse import MovementMap

        history = DecisionHistory(
            [
                Decision(
                    row=int(self.d_rows[index]),
                    col=int(self.d_cols[index]),
                    confidence=float(self.d_conf[index]),
                    timestamp=float(self.d_t[index]),
                )
                for index in range(self.d_t.size)
            ],
            shape=self.shape,
        )
        screen = self.screen if self.screen is not None else DEFAULT_SCREEN
        movement = MovementMap(
            screen=screen,
            data=EventArray(self.x, self.y, self.codes, self.t),
        )
        return HumanMatcher(
            matcher_id=self.session_id, history=history, movement=movement
        )


def trace_from_matcher(matcher) -> SessionTrace:
    """Freeze a :class:`~repro.matching.matcher.HumanMatcher` into a trace.

    Decisions are emitted in the history's stable timestamp order and
    events in the movement map's committed (time-sorted) order, so a
    trace written to a file and parsed back round-trips bitwise.
    """
    decisions = matcher.history.decisions
    data = matcher.movement.data
    return SessionTrace(
        session_id=matcher.matcher_id,
        shape=matcher.history.shape,
        x=np.asarray(data.x, dtype=np.float64).copy(),
        y=np.asarray(data.y, dtype=np.float64).copy(),
        codes=np.asarray(data.codes, dtype=np.int64).copy(),
        t=np.asarray(data.t, dtype=np.float64).copy(),
        d_rows=np.array([d.row for d in decisions], dtype=np.int64),
        d_cols=np.array([d.col for d in decisions], dtype=np.int64),
        d_conf=np.array([d.confidence for d in decisions], dtype=np.float64),
        d_t=np.array([d.timestamp for d in decisions], dtype=np.float64),
        screen=tuple(matcher.movement.screen),
    )


def merge_traces(
    events: Sequence[SessionTrace], decisions: Sequence[SessionTrace]
) -> list[SessionTrace]:
    """Join event-only traces with decision-only traces by session id.

    The natural composition of a CSV/JSONL mouse-event log with an OAEI
    decision file covering the same matchers: each output trace carries
    the event columns of the first input and the decision columns of the
    second.  Sessions present in only one input pass through unchanged;
    the result is sorted by session id.
    """
    by_id: dict[str, SessionTrace] = {trace.session_id: trace for trace in events}
    for trace in decisions:
        base = by_id.get(trace.session_id)
        if base is None:
            by_id[trace.session_id] = trace
            continue
        shape = (
            max(base.shape[0], trace.shape[0]),
            max(base.shape[1], trace.shape[1]),
        )
        by_id[trace.session_id] = replace(
            base,
            shape=shape,
            d_rows=trace.d_rows,
            d_cols=trace.d_cols,
            d_conf=trace.d_conf,
            d_t=trace.d_t,
        )
    return [by_id[session_id] for session_id in sorted(by_id)]


def trace_fingerprint(traces: Sequence[SessionTrace]) -> str:
    """Keyless blake2b content fingerprint over a whole workload.

    Order-independent across the input sequence (sessions are hashed in
    sorted-id order) and byte-exact over every column, so two workloads
    fingerprint equal iff their traces are bitwise identical.
    """
    digest = hashlib.blake2b(digest_size=16)
    for trace in sorted(traces, key=lambda item: item.session_id):
        digest.update(trace.session_id.encode())
        digest.update(np.asarray(trace.shape, dtype=np.int64).tobytes())
        screen = trace.screen if trace.screen is not None else (-1, -1)
        digest.update(np.asarray(screen, dtype=np.int64).tobytes())
        for column in (trace.x, trace.y, trace.t, trace.d_conf, trace.d_t):
            digest.update(np.ascontiguousarray(column, dtype=np.float64).tobytes())
        for column in (trace.codes, trace.d_rows, trace.d_cols):
            digest.update(np.ascontiguousarray(column, dtype=np.int64).tobytes())
    return digest.hexdigest()


__all__ = [
    "ADAPTER_TRACE_VERSION",
    "DEFAULT_SCREEN",
    "MAX_DIMENSION",
    "SessionTrace",
    "merge_traces",
    "trace_fingerprint",
    "trace_from_matcher",
]

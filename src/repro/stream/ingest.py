"""Append-friendly event ingestion over the columnar :class:`EventArray`.

:class:`StreamingEventBuffer` is the write side of the streaming session
layer.  Where :class:`~repro.matching.events.EventArray` is an immutable,
time-sorted snapshot, the buffer accepts events *as they arrive* — one at
a time or in column batches — into amortized-growth column arrays
(capacity doubles, so n appends cost O(n) total), and exposes the stream
back as zero-copy ``EventArray`` views.

Out-of-order arrival
--------------------
Real event transports deliver slightly out of order.  The buffer handles
this with a **bounded reorder window** (seconds), the standard streaming
watermark scheme:

* the *watermark* trails the maximum timestamp seen by ``reorder_window``
  seconds; an arriving event may be older than the newest event, but
  never older than the watermark (:class:`StreamOrderError` otherwise —
  dropping silently would break the equivalence contract);
* events newer than the watermark wait in a small *pending* region;
  whenever the watermark advances past them they are **committed** —
  merged into the sorted columns in stable ``(timestamp, arrival)``
  order, exactly the order ``EventArray`` gives the same events in one
  batch;
* committed events are final: nothing can arrive before them anymore, so
  incremental feature maintainers (:mod:`repro.stream.incremental`) can
  consume them exactly once via :meth:`StreamingEventBuffer.drain`.

With ``reorder_window=0`` (the default) timestamps must be non-decreasing
and every event commits immediately.

Equivalence contract
--------------------
At any point, ``committed() + pending`` replayed through a fresh
``EventArray`` equals :meth:`snapshot` — and after :meth:`flush`,
``snapshot()`` is bitwise-identical to ``EventArray`` built from all
events in arrival order, no matter how arrivals were chunked
(``tests/stream/test_stream_equivalence.py`` asserts this property over
random traces, chunkings, and in-window reorderings).
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.matching.events import (
    EventArray,
    N_EVENT_TYPES,
    check_event_columns,
    read_event_codes,
)

#: Initial capacity (events) of the growable committed region.
INITIAL_CAPACITY = 64


class StreamOrderError(ValueError):
    """An event arrived with a timestamp older than the reorder window allows."""


class _GrowableColumns:
    """Four parallel column arrays with amortized-doubling growth."""

    __slots__ = ("x", "y", "codes", "t", "size")

    def __init__(self, capacity: int = INITIAL_CAPACITY) -> None:
        capacity = max(int(capacity), 1)
        self.x = np.empty(capacity, dtype=np.float64)
        self.y = np.empty(capacity, dtype=np.float64)
        self.codes = np.empty(capacity, dtype=np.int64)
        self.t = np.empty(capacity, dtype=np.float64)
        self.size = 0

    @property
    def capacity(self) -> int:
        return self.t.size

    def _reserve(self, extra: int) -> None:
        needed = self.size + extra
        if needed <= self.capacity:
            return
        capacity = max(self.capacity, 1)
        while capacity < needed:
            capacity *= 2
        for name in ("x", "y", "codes", "t"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)

    def append_block(
        self, x: np.ndarray, y: np.ndarray, codes: np.ndarray, t: np.ndarray
    ) -> None:
        count = t.size
        self._reserve(count)
        end = self.size + count
        self.x[self.size : end] = x
        self.y[self.size : end] = y
        self.codes[self.size : end] = codes
        self.t[self.size : end] = t
        self.size = end

    def view(self, start: int = 0, end: Optional[int] = None) -> EventArray:
        """A zero-copy, read-only ``EventArray`` over ``[start, end)``."""
        end = self.size if end is None else end
        return EventArray(
            self.x[start:end], self.y[start:end],
            self.codes[start:end], self.t[start:end],
            assume_sorted=True, validate=False,
        )


class StreamingEventBuffer:
    """Incremental, append-friendly event stream with a bounded reorder window.

    Parameters
    ----------
    reorder_window:
        How far (seconds) behind the newest seen timestamp an arriving
        event may lag.  ``0`` demands non-decreasing timestamps.
    initial_capacity:
        Starting size of the committed column arrays.
    """

    def __init__(
        self,
        reorder_window: float = 0.0,
        initial_capacity: int = INITIAL_CAPACITY,
    ) -> None:
        if reorder_window < 0:
            raise ValueError("reorder_window must be non-negative")
        self.reorder_window = float(reorder_window)
        self._committed = _GrowableColumns(initial_capacity)
        # Pending events wait in a min-heap keyed on (timestamp, arrival
        # index): commits pop in stable (t, arrival) order in O(log n)
        # per event, and the unique arrival index breaks ties before the
        # payload fields are ever compared.
        self._pending: list[tuple[float, int, float, float, int]] = []
        self._max_t = -np.inf
        self._floor = -np.inf  # raised by flush(); commits below it are final
        self._arrivals = 0
        self._drained = 0  # committed prefix already handed to drain()
        # Duplicate tracking for extend_screened(): (t, x, y, code) keys of
        # events at or above the watermark.  Lazily seeded from snapshot()
        # on the first screened ingest (covers checkpoint restore), pruned
        # as the watermark advances.  None until screening is first used.
        self._recent: Optional[set[tuple[float, float, float, int]]] = None

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    @property
    def watermark(self) -> float:
        """Oldest timestamp still accepted; ``-inf`` before the first event.

        Normally trails the stream maximum by ``reorder_window``; a
        :meth:`flush` raises it to the flushed maximum permanently (the
        flush is a barrier — everything before it is final).
        """
        if not np.isfinite(self._max_t):
            return self._floor
        return max(self._max_t - self.reorder_window, self._floor)

    @property
    def max_timestamp(self) -> float:
        """Newest timestamp ingested so far (``-inf`` before the first event)."""
        return self._max_t

    def append(self, x: float, y: float, code: int, t: float) -> None:
        """Ingest a single event (scalar fast path of :meth:`extend`)."""
        t = float(t)
        if not np.isfinite(t):
            raise ValueError("timestamps must be finite")
        if t < 0:
            raise ValueError("timestamp must be non-negative")
        code = int(code)
        if not 0 <= code < N_EVENT_TYPES:
            raise ValueError(f"event codes must lie in [0, {N_EVENT_TYPES})")
        if t < self.watermark:
            raise StreamOrderError(
                f"event at t={t:.6f}s arrived {self._max_t - t:.6f}s behind the "
                f"stream maximum, outside the reorder window of "
                f"{self.reorder_window:.6f}s"
            )
        if self.reorder_window == 0.0:
            columns = self._committed
            columns._reserve(1)
            columns.x[columns.size] = x
            columns.y[columns.size] = y
            columns.codes[columns.size] = code
            columns.t[columns.size] = t
            columns.size += 1
            self._arrivals += 1
            if t > self._max_t:
                self._max_t = t
            return
        heapq.heappush(self._pending, (t, self._arrivals, float(x), float(y), code))
        self._arrivals += 1
        if t > self._max_t:
            self._max_t = t
        self._commit_ready()

    def extend(self, x, y, codes, t) -> None:
        """Ingest a column batch of events (arrival order = array order).

        Raises
        ------
        StreamOrderError
            If any event is older than the current watermark (including
            the watermark advanced by *earlier entries of this batch*).
        ValueError
            On non-finite/negative timestamps, event codes that are not
            integers in ``[0, N_EVENT_TYPES)`` (checked before the int64
            cast, so 1.7 is rejected rather than stored as 1), or ragged
            columns.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        codes, values = read_event_codes(codes)
        t = np.asarray(t, dtype=np.float64).ravel()
        if not (x.size == y.size == codes.size == t.size):
            raise ValueError("event columns must have equal lengths")
        if t.size == 0:
            return
        if values is not None and (codes < 0).any():
            raise ValueError(
                f"event code {float(values[np.argmax(codes < 0)])!r} is not an integer "
                f"in [0, {N_EVENT_TYPES})"
            )
        check_event_columns(codes, t)
        # The watermark advances as the batch is scanned: an entry may not
        # be older than the window behind the newest entry before it.
        running_max = np.maximum.accumulate(t)
        running_max = np.maximum(running_max, self._max_t)
        lag = running_max - t
        if self.reorder_window == 0.0:
            late = t < running_max
        else:
            late = lag > self.reorder_window
        if np.isfinite(self._floor):
            late = late | (t < self._floor)
            lag = np.maximum(lag, self._floor - t)
        if late.any():
            index = int(np.argmax(late))
            raise StreamOrderError(
                f"event at t={t[index]:.6f}s arrived {lag[index]:.6f}s behind the "
                f"stream maximum, outside the reorder window of "
                f"{self.reorder_window:.6f}s"
            )
        if self.reorder_window == 0.0:
            # Fast path: a zero window admits only non-decreasing
            # timestamps (just validated), so the batch is already in
            # committed order — append it straight to the columns, no
            # pending region, no sort.
            self._committed.append_block(x, y, codes, t)
            self._arrivals += t.size
            self._max_t = float(running_max[-1])
            return
        for position in range(t.size):
            heapq.heappush(
                self._pending,
                (
                    float(t[position]), self._arrivals,
                    float(x[position]), float(y[position]), int(codes[position]),
                ),
            )
            self._arrivals += 1
        self._max_t = float(running_max[-1])
        self._commit_ready()

    def extend_array(self, events: EventArray) -> None:
        """Ingest every event of an :class:`EventArray` (already time-sorted)."""
        self.extend(events.x, events.y, events.codes, events.t)

    def extend_screened(self, x, y, codes, t, quarantine, session_id: str = "") -> int:
        """Ingest a batch, diverting rejectable events instead of raising.

        The fault-tolerant front-end of :meth:`extend`: each event is
        screened in arrival order — ``malformed`` (the strict path's
        ``ValueError`` cases), ``out_of_window`` (its
        :class:`StreamOrderError` cases) and ``duplicate`` (an exact
        ``(t, x, y, code)`` payload already accepted at or above the
        watermark) events are recorded in ``quarantine`` (a
        :class:`~repro.stream.quarantine.QuarantineLog`) with structured
        reasons; the survivors are handed to the strict :meth:`extend`
        unchanged, so the committed stream is bitwise identical to a
        clean run ingesting only the survivors.

        Ragged columns are still a structural (caller) error and raise
        ``ValueError`` — screening is per event, not per batch.

        Returns
        -------
        int
            The number of surviving (ingested) events.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        codes, values = read_event_codes(codes)
        t = np.asarray(t, dtype=np.float64).ravel()
        if not (x.size == y.size == codes.size == t.size):
            raise ValueError("event columns must have equal lengths")
        if t.size == 0:
            return 0
        if self._recent is None:
            watermark = self.watermark
            snapshot = self.snapshot()
            keep = snapshot.t >= watermark
            self._recent = {
                (
                    float(snapshot.t[index]), float(snapshot.x[index]),
                    float(snapshot.y[index]), int(snapshot.codes[index]),
                )
                for index in np.flatnonzero(keep)
            }
        survivors: list[int] = []
        running_max = self._max_t
        for position in range(t.size):
            t_i = float(t[position])
            code_i = int(codes[position])
            if not np.isfinite(t_i) or t_i < 0 or not 0 <= code_i < N_EVENT_TYPES:
                if not (np.isfinite(t_i) and t_i >= 0):
                    detail = f"timestamp {t_i!r} must be finite and non-negative"
                elif values is not None:
                    detail = (
                        f"event code {float(values[position])!r} is not an integer "
                        f"in [0, {N_EVENT_TYPES})"
                    )
                else:
                    detail = f"event code {code_i} outside [0, {N_EVENT_TYPES})"
                quarantine.add(
                    session_id=session_id, reason="malformed",
                    detail=detail,
                    x=float(x[position]), y=float(y[position]),
                    code=code_i, t=t_i,
                )
                continue
            new_max = max(running_max, t_i)
            if self.reorder_window == 0.0:
                late = t_i < new_max
            else:
                late = (new_max - t_i) > self.reorder_window
            if late or (np.isfinite(self._floor) and t_i < self._floor):
                quarantine.add(
                    session_id=session_id, reason="out_of_window",
                    detail=(
                        f"t={t_i:.6f}s is {new_max - t_i:.6f}s behind the stream "
                        f"maximum (window {self.reorder_window:.6f}s)"
                    ),
                    x=float(x[position]), y=float(y[position]),
                    code=code_i, t=t_i,
                )
                continue
            key = (t_i, float(x[position]), float(y[position]), code_i)
            if key in self._recent:
                quarantine.add(
                    session_id=session_id, reason="duplicate",
                    detail=f"exact payload re-delivered at t={t_i:.6f}s",
                    x=key[1], y=key[2], code=code_i, t=t_i,
                )
                continue
            self._recent.add(key)
            survivors.append(position)
            running_max = new_max
        if survivors:
            index = np.asarray(survivors, dtype=np.intp)
            self.extend(x[index], y[index], codes[index], t[index])
        watermark = self.watermark
        if np.isfinite(watermark):
            self._recent = {key for key in self._recent if key[0] >= watermark}
        return len(survivors)

    def _commit_ready(self) -> None:
        """Move pending events at or below the watermark into the columns.

        Heap pops deliver the stable ``(timestamp, arrival)`` order — the
        order a one-shot ``EventArray`` stable sort gives the same
        events — and the O(1) head check makes the no-commit case free.
        """
        if not self._pending or self._pending[0][0] > self.watermark:
            return
        watermark = self.watermark
        ready = []
        while self._pending and self._pending[0][0] <= watermark:
            ready.append(heapq.heappop(self._pending))
        self._committed.append_block(
            np.array([entry[2] for entry in ready], dtype=np.float64),
            np.array([entry[3] for entry in ready], dtype=np.float64),
            np.array([entry[4] for entry in ready], dtype=np.int64),
            np.array([entry[0] for entry in ready], dtype=np.float64),
        )

    def flush(self) -> None:
        """Commit every pending event (end of stream / forced barrier).

        The flush raises the watermark to the stream maximum permanently:
        the flushed events are final, so events older than the flushed
        maximum are rejected from then on, reorder window or not.
        """
        if np.isfinite(self._max_t):
            self._floor = max(self._floor, self._max_t)
        self._commit_ready()

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    @property
    def n_committed(self) -> int:
        return self._committed.size

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    def __len__(self) -> int:
        return self.n_committed + self.n_pending

    def committed(self) -> EventArray:
        """Zero-copy view of the committed (final, time-sorted) region."""
        return self._committed.view()

    def drain(self) -> EventArray:
        """Events committed since the previous :meth:`drain` (exactly once).

        The incremental maintainers consume this: each committed event is
        delivered exactly once, in committed (stable time-sorted) order.
        """
        view = self._committed.view(self._drained)
        self._drained = self._committed.size
        return view

    def window(self, start: float, end: float) -> EventArray:
        """Committed events in ``[start, end]`` (``searchsorted`` slice)."""
        return self.committed().slice_between(start, end)

    def snapshot(self) -> EventArray:
        """All events — committed plus pending — as one sorted store.

        Bitwise-identical to ``EventArray`` built from every ingested
        event in arrival order (pending events are merged in stable
        ``(timestamp, arrival)`` order without being committed).
        """
        if not self._pending:
            return self.committed()
        # Tuples sort by (t, arrival); the unique arrival index settles
        # ties before any payload field is compared.
        pending = sorted(self._pending)
        committed = self._committed
        return EventArray(
            np.concatenate(
                [committed.x[: committed.size], [entry[2] for entry in pending]]
            ),
            np.concatenate(
                [committed.y[: committed.size], [entry[3] for entry in pending]]
            ),
            np.concatenate(
                [committed.codes[: committed.size],
                 np.array([entry[4] for entry in pending], dtype=np.int64)]
            ),
            np.concatenate(
                [committed.t[: committed.size], [entry[0] for entry in pending]]
            ),
            assume_sorted=False, validate=False,
        )

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def state(self) -> dict[str, np.ndarray]:
        """The buffer's exact state as flat arrays (see ``checkpoint.py``).

        Pending events are stored in canonical ``(t, arrival)`` order, so
        the checkpoint bytes are independent of the heap's internal
        layout (a sorted list is itself a valid min-heap on restore).
        """
        pending = sorted(self._pending)
        return {
            "committed_x": self._committed.x[: self._committed.size].copy(),
            "committed_y": self._committed.y[: self._committed.size].copy(),
            "committed_codes": self._committed.codes[: self._committed.size].copy(),
            "committed_t": self._committed.t[: self._committed.size].copy(),
            "pending_x": np.array([entry[2] for entry in pending], dtype=np.float64),
            "pending_y": np.array([entry[3] for entry in pending], dtype=np.float64),
            "pending_codes": np.array([entry[4] for entry in pending], dtype=np.int64),
            "pending_t": np.array([entry[0] for entry in pending], dtype=np.float64),
            "pending_seq": np.array([entry[1] for entry in pending], dtype=np.int64),
            "scalars": np.array(
                [self.reorder_window, self._max_t, self._arrivals, self._drained,
                 self._floor],
                dtype=np.float64,
            ),
        }

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "StreamingEventBuffer":
        """Rebuild a buffer whose future behaviour is identical to the saved one."""
        reorder_window, max_t, arrivals, drained, floor = (
            float(value) for value in state["scalars"]
        )
        buffer = cls(
            reorder_window=reorder_window,
            initial_capacity=max(int(state["committed_t"].size), 1),
        )
        buffer._committed.append_block(
            np.asarray(state["committed_x"], dtype=np.float64),
            np.asarray(state["committed_y"], dtype=np.float64),
            np.asarray(state["committed_codes"], dtype=np.int64),
            np.asarray(state["committed_t"], dtype=np.float64),
        )
        buffer._pending = [
            (
                float(state["pending_t"][index]),
                int(state["pending_seq"][index]),
                float(state["pending_x"][index]),
                float(state["pending_y"][index]),
                int(state["pending_codes"][index]),
            )
            for index in range(state["pending_t"].size)
        ]
        heapq.heapify(buffer._pending)
        buffer._max_t = max_t
        buffer._floor = floor
        buffer._arrivals = int(arrivals)
        buffer._drained = int(drained)
        return buffer

    def __repr__(self) -> str:
        return (
            f"StreamingEventBuffer(committed={self.n_committed}, "
            f"pending={self.n_pending}, reorder_window={self.reorder_window})"
        )

"""Columnar event store backing the movement map (struct-of-arrays).

The paper's mouse instrumentation produces long streams of
``<(x, y), type, time>`` triplets.  Storing them as one Python object per
event makes every aggregation — heat maps, per-type counts, path lengths,
time-window slices — an interpreter loop.  :class:`EventArray` keeps the
stream as four parallel NumPy arrays (``x``, ``y``, integer type codes and
timestamps, sorted by time) so those aggregations become single vectorized
operations, while :class:`~repro.matching.mouse.MovementMap` retains the
``MouseEvent`` object API as a thin view for existing callers.

Every vectorized aggregation is asserted against a scalar-loop oracle in
``tests/oracles/matching.py``; heat maps and per-type counts are
integer-valued, so the fast paths are bitwise-identical to the loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mouse imports events)
    from repro.matching.mouse import MouseEvent, MouseEventType

#: Stable event-type codes, shared with the feature-cache fingerprints and
#: the serving population files (``repro.serve.population``).
EVENT_CODES: dict[str, int] = {"move": 0, "left": 1, "right": 2, "scroll": 3}

#: Number of distinct event types.
N_EVENT_TYPES = len(EVENT_CODES)

_CODE_VALUES: tuple[str, ...] = tuple(
    value for value, _ in sorted(EVENT_CODES.items(), key=lambda item: item[1])
)


def check_event_columns(codes: np.ndarray, t: np.ndarray) -> None:
    """The ingest rules for event columns, applied to whole columns.

    Raises
    ------
    ValueError
        On a non-finite or negative timestamp, or a code outside
        ``[0, N_EVENT_TYPES)``.
    """
    if not np.isfinite(t).all():
        raise ValueError("timestamps must be finite")
    if t.size and t.min() < 0:
        raise ValueError("timestamp must be non-negative")
    if codes.size and (codes.min() < 0 or codes.max() >= N_EVENT_TYPES):
        raise ValueError(f"event codes must lie in [0, {N_EVENT_TYPES})")


def bin_position(
    x: float, y: float, screen: tuple[int, int], shape: tuple[int, int]
) -> tuple[int, int]:
    """Grid cell of one position: the scalar heat-map binning rule.

    The single source of truth for clip-truncate-cap binning, used by the
    streaming per-event fast path
    (:class:`repro.stream.IncrementalHeatMap`); the vectorized
    :func:`bin_cells` (behind :meth:`EventArray.heat_map_counts` and the
    Phi_Mou kernel) is bitwise-identical to it.
    """
    rows, cols = shape
    screen_rows, screen_cols = screen
    x = min(max(float(x), 0.0), screen_cols - 1)
    y = min(max(float(y), 0.0), screen_rows - 1)
    row = min(int(y / screen_rows * rows), rows - 1)
    col = min(int(x / screen_cols * cols), cols - 1)
    return row, col


def bin_cells(
    x: np.ndarray,
    y: np.ndarray,
    screen_rows: "int | np.ndarray",
    screen_cols: "int | np.ndarray",
    shape: tuple[int, int],
) -> np.ndarray:
    """Flat grid cell ``row * cols + col`` of each position: :func:`bin_position`, vectorized.

    The screen is a scalar pair or one ``(rows, cols)`` pair per event, so
    a single call bins the events of matchers with different screens.
    """
    rows, cols = shape
    x = np.clip(x, 0.0, screen_cols - 1)
    y = np.clip(y, 0.0, screen_rows - 1)
    # int() truncation in bin_position; values are non-negative after the
    # clip, so astype(int64) truncates identically.
    row = np.minimum((y / screen_rows * rows).astype(np.int64), rows - 1)
    col = np.minimum((x / screen_cols * cols).astype(np.int64), cols - 1)
    return row * cols + col


def type_for(code: int) -> "MouseEventType":
    """The :class:`MouseEventType` of a stable integer code."""
    from repro.matching.mouse import MouseEventType

    return MouseEventType(_CODE_VALUES[code])


class EventArray:
    """An immutable, time-sorted struct-of-arrays event stream.

    Attributes
    ----------
    x, y:
        Screen positions, ``float64`` arrays of length ``n``.
    codes:
        Event-type codes (see :data:`EVENT_CODES`), ``int64`` array.
    t:
        Timestamps in seconds, ``float64`` array, non-decreasing.
    """

    __slots__ = ("x", "y", "codes", "t")

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        codes: np.ndarray,
        t: np.ndarray,
        *,
        assume_sorted: bool = False,
        validate: bool = True,
    ) -> None:
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        codes = np.asarray(codes, dtype=np.int64).ravel()
        t = np.asarray(t, dtype=np.float64).ravel()
        if not (x.size == y.size == codes.size == t.size):
            raise ValueError("event columns must have equal lengths")
        if validate and t.size:
            if t.min() < 0:
                raise ValueError("timestamp must be non-negative")
            if codes.min() < 0 or codes.max() >= N_EVENT_TYPES:
                raise ValueError(f"event codes must lie in [0, {N_EVENT_TYPES})")
        if not assume_sorted and t.size:
            # Stable, matching ``sorted(events, key=lambda e: e.timestamp)``.
            order = np.argsort(t, kind="stable")
            x, y, codes, t = x[order], y[order], codes[order], t[order]
        self.x = x
        self.y = y
        self.codes = codes
        self.t = t
        for column in (self.x, self.y, self.codes, self.t):
            column.flags.writeable = False

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls) -> "EventArray":
        return cls(
            np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0),
            assume_sorted=True, validate=False,
        )

    @classmethod
    def from_events(cls, events: Iterable["MouseEvent"]) -> "EventArray":
        """Build the columnar store from ``MouseEvent`` objects."""
        events = list(events)
        if not events:
            return cls.empty()
        x = np.fromiter((e.x for e in events), dtype=np.float64, count=len(events))
        y = np.fromiter((e.y for e in events), dtype=np.float64, count=len(events))
        codes = np.fromiter(
            (EVENT_CODES[e.event_type.value] for e in events),
            dtype=np.int64,
            count=len(events),
        )
        t = np.fromiter((e.timestamp for e in events), dtype=np.float64, count=len(events))
        # MouseEvent.__post_init__ already validated timestamps/types.
        return cls(x, y, codes, t, validate=False)

    def __len__(self) -> int:
        return self.t.size

    # ------------------------------------------------------------------ #
    # Functional growth (columns stay immutable; a new store is returned)
    # ------------------------------------------------------------------ #

    def append(self, x: float, y: float, code: int, t: float) -> "EventArray":
        """A new store with one event added (re-sorted by timestamp, stable).

        ``EventArray`` columns are immutable, so growth is functional:
        ``store = store.append(...)``.  The result is bitwise-identical to
        rebuilding via :meth:`from_events` on the equivalent ``MouseEvent``
        list — without round-tripping through Python objects.  For
        high-rate appends use
        :class:`~repro.stream.StreamingEventBuffer`, which grows
        amortized-O(1) columns instead of copying per event.
        """
        return self.extend([x], [y], [code], [t])

    def extend(
        self,
        x: np.ndarray,
        y: np.ndarray,
        codes: np.ndarray,
        t: np.ndarray,
    ) -> "EventArray":
        """A new store with a column batch of events added (stable re-sort).

        Equivalent to ``EventArray`` built from the concatenated columns:
        the incoming events are validated and stably merged by timestamp
        after the existing ones, exactly as :meth:`from_events` orders an
        extended event list.
        """
        added = EventArray(x, y, codes, t, assume_sorted=False, validate=True)
        if not len(self):
            return added
        if not len(added):
            return self
        return EventArray(
            np.concatenate([self.x, added.x]),
            np.concatenate([self.y, added.y]),
            np.concatenate([self.codes, added.codes]),
            np.concatenate([self.t, added.t]),
            assume_sorted=bool(added.t[0] >= self.t[-1]),
            validate=False,
        )

    def to_events(self) -> list["MouseEvent"]:
        """Materialise ``MouseEvent`` objects (the thin object view)."""
        from repro.matching.mouse import MouseEvent

        types = [type_for(code) for code in self.codes.tolist()]
        return [
            MouseEvent(x=x, y=y, event_type=event_type, timestamp=t)
            for x, y, event_type, t in zip(
                self.x.tolist(), self.y.tolist(), types, self.t.tolist()
            )
        ]

    # ------------------------------------------------------------------ #
    # Vectorized aggregations (fast kernels)
    # ------------------------------------------------------------------ #

    def counts_by_code(self) -> np.ndarray:
        """Number of events of each type code, shape ``(N_EVENT_TYPES,)``."""
        return np.bincount(self.codes, minlength=N_EVENT_TYPES)

    def slice_until(self, timestamp: float) -> "EventArray":
        """Events with ``t <= timestamp`` (columns are time-sorted)."""
        end = int(np.searchsorted(self.t, timestamp, side="right"))
        return self._slice(0, end)

    def slice_between(self, start: float, end: float) -> "EventArray":
        """Events in the closed interval ``[start, end]``."""
        lo = int(np.searchsorted(self.t, start, side="left"))
        hi = int(np.searchsorted(self.t, end, side="right"))
        return self._slice(lo, max(hi, lo))

    def _slice(self, lo: int, hi: int) -> "EventArray":
        return EventArray(
            self.x[lo:hi], self.y[lo:hi], self.codes[lo:hi], self.t[lo:hi],
            assume_sorted=True, validate=False,
        )

    def duration(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(self.t[-1] - self.t[0])

    def positions(self) -> np.ndarray:
        """An ``(n, 2)`` array of ``(x, y)`` positions in event order."""
        if not len(self):
            return np.zeros((0, 2), dtype=float)
        return np.column_stack([self.x, self.y])

    def path_length(self) -> float:
        """Total Euclidean distance travelled by the cursor."""
        if len(self) < 2:
            return 0.0
        deltas = np.diff(self.positions(), axis=0)
        return float(np.sqrt((deltas**2).sum(axis=1)).sum())

    def heat_map_counts(
        self,
        screen: tuple[int, int],
        shape: tuple[int, int],
        code: Optional[int] = None,
    ) -> np.ndarray:
        """Bin (clipped) positions onto a grid — one ``bincount``.

        Counts are integers, so this is bitwise-identical to binning each
        event with :func:`bin_position`.
        """
        rows, cols = shape
        if code is None:
            x, y = self.x, self.y
        else:
            mask = self.codes == code
            x, y = self.x[mask], self.y[mask]
        if not x.size:
            return np.zeros((rows, cols), dtype=float)
        counts = np.bincount(bin_cells(x, y, *screen, shape), minlength=rows * cols)
        return counts.reshape(rows, cols).astype(float)

    def __repr__(self) -> str:
        return f"EventArray(n={len(self)})"


def concatenate(stores: list[EventArray]) -> EventArray:
    """Concatenate several event streams (re-sorted by timestamp, stable)."""
    if not stores:
        return EventArray.empty()
    return EventArray(
        np.concatenate([s.x for s in stores]),
        np.concatenate([s.y for s in stores]),
        np.concatenate([s.codes for s in stores]),
        np.concatenate([s.t for s in stores]),
        validate=False,
    )

"""Mouse movement maps ``G`` and heat maps (Section II-A2).

Every mouse movement is a triplet ``<(x, y), type, time>`` where the type is
one of move, left click, right click, or scroll.  Aggregating positions per
type yields screen-sized heat maps in which frequently visited pixels carry
higher values; the paper down-streams those heat maps into a CNN.

Since the columnar event-stream refactor the map is backed by an
:class:`~repro.matching.events.EventArray` (struct-of-arrays: positions,
type codes, timestamps), so heat maps, per-type counts, path statistics and
time-window slicing are single vectorized operations.  The historical
``MouseEvent`` object API is kept as a thin, lazily-materialised view.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.matching import events as _events
from repro.matching.events import EventArray


class MouseEventType(enum.Enum):
    """The four event types tracked by the paper's instrumentation."""

    MOVE = "move"
    LEFT_CLICK = "left"
    RIGHT_CLICK = "right"
    SCROLL = "scroll"


@dataclass(frozen=True)
class MouseEvent:
    """A single mouse event at screen position ``(x, y)`` and time ``t``."""

    x: float
    y: float
    event_type: MouseEventType
    timestamp: float

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")


class HeatMap:
    """A screen-sized intensity matrix aggregating visit frequency."""

    def __init__(self, counts: np.ndarray) -> None:
        array = np.asarray(counts, dtype=float)
        if array.ndim != 2:
            raise ValueError("heat map must be 2-D")
        if array.size and array.min() < 0:
            raise ValueError("heat map counts must be non-negative")
        self._counts = array

    @property
    def counts(self) -> np.ndarray:
        view = self._counts.view()
        view.flags.writeable = False
        return view

    @property
    def shape(self) -> tuple[int, int]:
        return self._counts.shape  # type: ignore[return-value]

    @property
    def total(self) -> float:
        return float(self._counts.sum())

    def normalized(self) -> np.ndarray:
        """Counts rescaled to [0, 1] (all-zeros stays all-zeros)."""
        maximum = self._counts.max() if self._counts.size else 0.0
        if maximum == 0:
            return self._counts.copy()
        return self._counts / maximum

    def downscale(self, shape: tuple[int, int]) -> "HeatMap":
        """Sum-pool the heat map down to ``shape`` (for CNN input).

        Vectorized via ``np.add.reduceat`` over the bin edges; the counts
        are visit frequencies (integer-valued), so the pooled sums are
        bitwise-identical to a per-target-cell double loop for divisible
        and non-divisible shapes alike.
        """
        target_rows, target_cols = shape
        if target_rows <= 0 or target_cols <= 0:
            raise ValueError("target shape must be positive")
        rows, cols = self.shape
        if rows == 0 or cols == 0:
            return HeatMap(np.zeros(shape, dtype=float))
        row_edges = np.linspace(0, rows, target_rows + 1).astype(int)
        col_edges = np.linspace(0, cols, target_cols + 1).astype(int)
        pooled = np.add.reduceat(self._counts, row_edges[:-1], axis=0)
        pooled = np.add.reduceat(pooled, col_edges[:-1], axis=1)
        # reduceat yields counts[i] (not 0) for empty segments; blank them.
        empty_rows = np.diff(row_edges) == 0
        empty_cols = np.diff(col_edges) == 0
        if empty_rows.any():
            pooled[empty_rows, :] = 0.0
        if empty_cols.any():
            pooled[:, empty_cols] = 0.0
        return HeatMap(pooled)

    def region_mass(self, row_slice: slice, col_slice: slice) -> float:
        """Fraction of the total mass falling in a screen region."""
        if self.total == 0:
            return 0.0
        return float(self._counts[row_slice, col_slice].sum() / self.total)

    def center_of_mass(self) -> tuple[float, float]:
        """The intensity-weighted mean position ``(row, col)``."""
        if self.total == 0:
            rows, cols = self.shape
            return (rows / 2.0, cols / 2.0)
        row_idx, col_idx = np.indices(self.shape)
        return (
            float((row_idx * self._counts).sum() / self.total),
            float((col_idx * self._counts).sum() / self.total),
        )

    def coverage(self) -> float:
        """Fraction of pixels visited at least once."""
        if self._counts.size == 0:
            return 0.0
        return float(np.count_nonzero(self._counts) / self._counts.size)

    def __repr__(self) -> str:
        return f"HeatMap(shape={self.shape}, total={self.total:.0f})"


class MovementMap:
    """The full movement map ``G``: an ordered sequence of mouse events."""

    #: Default (rows, cols) screen resolution, i.e. (height, width) in pixels.
    DEFAULT_SCREEN: tuple[int, int] = (768, 1024)

    def __init__(
        self,
        events: Iterable[MouseEvent] = (),
        screen: tuple[int, int] = DEFAULT_SCREEN,
        *,
        data: Optional[EventArray] = None,
    ) -> None:
        if data is not None:
            self._data = data
        else:
            self._data = EventArray.from_events(events)
        rows, cols = screen
        if rows <= 0 or cols <= 0:
            raise ValueError("screen dimensions must be positive")
        self.screen = (int(rows), int(cols))
        self._event_view: Optional[tuple[MouseEvent, ...]] = None

    @classmethod
    def from_arrays(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        codes: np.ndarray,
        timestamps: np.ndarray,
        screen: tuple[int, int] = DEFAULT_SCREEN,
        *,
        assume_sorted: bool = False,
        validate: bool = True,
    ) -> "MovementMap":
        """Build a map directly from columnar event data (no objects)."""
        data = EventArray(
            x, y, codes, timestamps, assume_sorted=assume_sorted, validate=validate
        )
        return cls(screen=screen, data=data)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def data(self) -> EventArray:
        """The columnar event store backing this map."""
        return self._data

    @property
    def events(self) -> tuple[MouseEvent, ...]:
        if self._event_view is None:
            self._event_view = tuple(self._data.to_events())
        return self._event_view

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[MouseEvent]:
        return iter(self.events)

    @property
    def is_empty(self) -> bool:
        return len(self._data) == 0

    def events_of_type(self, event_type: MouseEventType) -> list[MouseEvent]:
        return [e for e in self.events if e.event_type == event_type]

    def count_by_type(self) -> dict[MouseEventType, int]:
        counts = self._data.counts_by_code()
        return {
            event_type: int(counts[_events.EVENT_CODES[event_type.value]])
            for event_type in MouseEventType
        }

    def duration(self) -> float:
        """Elapsed time between the first and last event."""
        return self._data.duration()

    def positions(self) -> np.ndarray:
        """An ``(n, 2)`` array of ``(x, y)`` positions in event order."""
        return self._data.positions()

    def path_length(self) -> float:
        """Total Euclidean distance travelled by the cursor."""
        return self._data.path_length()

    def mean_position(self) -> tuple[float, float]:
        """Average ``(x, y)`` position over all events."""
        if self.is_empty:
            rows, cols = self.screen
            return (cols / 2.0, rows / 2.0)
        return (float(self._data.x.mean()), float(self._data.y.mean()))

    def mean_speed(self) -> float:
        """Average cursor speed in pixels per second."""
        duration = self.duration()
        if duration <= 0:
            return 0.0
        return self.path_length() / duration

    # ------------------------------------------------------------------ #
    # Heat maps
    # ------------------------------------------------------------------ #

    def heat_map(
        self,
        event_type: Optional[MouseEventType] = None,
        shape: Optional[tuple[int, int]] = None,
    ) -> HeatMap:
        """Aggregate events of ``event_type`` (or all) into a heat map.

        Positions are clipped to the screen, then binned onto a grid of
        ``shape`` (defaults to the full screen resolution).  The fast path
        is one ``bincount``; counts are integers, so it is bitwise-identical
        to event-by-event binning.
        """
        grid = shape if shape is not None else self.screen
        code = None if event_type is None else _events.EVENT_CODES[event_type.value]
        return HeatMap(self._data.heat_map_counts(self.screen, grid, code=code))

    def heat_maps_by_type(self, shape: Optional[tuple[int, int]] = None) -> dict[MouseEventType, HeatMap]:
        """The four heat maps the paper's CNN consumes: move/left/right/scroll."""
        return {
            event_type: self.heat_map(event_type=event_type, shape=shape)
            for event_type in MouseEventType
        }

    # ------------------------------------------------------------------ #
    # Slicing
    # ------------------------------------------------------------------ #

    def until(self, timestamp: float) -> "MovementMap":
        """Events up to (and including) ``timestamp``."""
        return MovementMap(screen=self.screen, data=self._data.slice_until(timestamp))

    def between(self, start: float, end: float) -> "MovementMap":
        """Events in the closed time interval ``[start, end]``."""
        return MovementMap(screen=self.screen, data=self._data.slice_between(start, end))

    def __repr__(self) -> str:
        return f"MovementMap(events={len(self)}, screen={self.screen})"


def merge_movement_maps(maps: Sequence[MovementMap]) -> MovementMap:
    """Concatenate several movement maps (events re-sorted by timestamp)."""
    if not maps:
        return MovementMap()
    screen = maps[0].screen
    for movement_map in maps:
        if movement_map.screen != screen:
            raise ValueError("cannot merge movement maps with different screen sizes")
    merged = _events.concatenate([movement_map.data for movement_map in maps])
    return MovementMap(screen=screen, data=merged)

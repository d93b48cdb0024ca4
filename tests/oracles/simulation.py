"""Scalar oracle of the mouse-trace simulator (``repro.simulation.mouse_sim``)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.matching.history import DecisionHistory
from repro.matching.mouse import MouseEvent, MouseEventType, MovementMap
from repro.simulation.archetypes import BehavioralTraits
from repro.simulation.mouse_sim import (
    _decision_windows,
    _predraw,
    _region_centers,
    _visited_regions,
)


def simulate_movement_reference(
    history: DecisionHistory,
    traits: BehavioralTraits,
    screen: tuple[int, int] = MovementMap.DEFAULT_SCREEN,
    events_per_decision: int = 9,
    rng: Optional[np.random.Generator] = None,
) -> MovementMap:
    """``simulate_movement`` that walks the pre-drawn blocks one event at a time.

    It draws exactly the randomness the vectorized generator draws, in the
    same order, and builds one ``MouseEvent`` per event.
    """
    rng = rng or np.random.default_rng()
    traits = traits.clipped()
    if history.is_empty:
        return MovementMap((), screen=screen)

    centers = _region_centers(screen)
    regions = _visited_regions(traits, rng)
    draws = _predraw(history, regions, events_per_decision, rng)
    starts, ends = _decision_windows(history)

    rows, cols = screen
    spread_x = cols * 0.08
    spread_y = rows * 0.07
    scroll_cut = traits.scroll_tendency * 0.3
    events: list[MouseEvent] = []
    position = 0
    for index, count in enumerate(draws["n_events"].tolist()):
        start, end = starts[index], ends[index]
        fractions = draws["time_fractions"][position : position + count]
        times = np.sort(start + (end - start) * fractions)
        for event_index in range(count):
            flat = position + event_index
            if event_index == count - 1:
                region_center = centers["match_table"]
            else:
                region_center = centers[regions[int(draws["region_picks"][flat])]]
            x = float(np.clip(region_center[0] + spread_x * draws["dx"][flat], 0, cols - 1))
            y = float(np.clip(region_center[1] + spread_y * draws["dy"][flat], 0, rows - 1))
            roll = draws["rolls"][flat]
            if event_index == count - 1:
                event_type = MouseEventType.LEFT_CLICK
            elif roll < scroll_cut:
                event_type = MouseEventType.SCROLL
            elif roll < scroll_cut + 0.03:
                event_type = MouseEventType.RIGHT_CLICK
            else:
                event_type = MouseEventType.MOVE
            events.append(
                MouseEvent(x=x, y=y, event_type=event_type, timestamp=float(times[event_index]))
            )
        position += count
    return MovementMap(events, screen=screen)

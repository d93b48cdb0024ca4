"""Mouse-trace simulation tied to the decision history and the matching UI layout.

The Ontobuilder-style interface (Section IV-A) has four main regions:

* the candidate schema tree (top left),
* the target schema tree (top right),
* a properties box with element metadata (middle),
* the match table / matching matrix (bottom).

A matcher's ``exploration`` trait controls how much of the screen is visited
(Matcher B famously skips the top-left metadata region); ``scroll_tendency``
controls the fraction of scroll events (the paper's ablation singles out
scrolling as an uncertainty signal).  Events are generated around each
decision's timestamp so that decision pacing and mouse pacing agree.

The generator pre-draws **all** randomness in a fixed block order (event
counts, per-event time fractions, region picks, positional jitter,
event-type rolls), then assembles the whole trace with vectorized NumPy and
hands the columns straight to :meth:`MovementMap.from_arrays` — no
per-event Python, no ``MouseEvent`` objects.  A scalar consumer of the same
pre-drawn blocks (``tests/oracles/simulation.py``) walks the events one at a
time and is asserted bitwise-equal to it.

Traces are dataset version 2 (:data:`MOUSE_TRACE_VERSION`).  Version 1
came from an event-by-event generator that interleaved its draws per
event; its stream order cannot be reproduced by block pre-drawing, so
version-1 traces are regenerated from an older release (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.matching.events import EVENT_CODES
from repro.matching.history import DecisionHistory
from repro.matching.mouse import MouseEventType, MovementMap
from repro.simulation.archetypes import BehavioralTraits

#: Version of the simulated mouse-trace datasets.  Bumped from 1 -> 2 with
#: the columnar generator (new randomness stream order).
MOUSE_TRACE_VERSION = 2

#: Screen regions as (x_center, y_center) fractions of (width, height).
SCREEN_REGIONS: dict[str, tuple[float, float]] = {
    "source_tree": (0.2, 0.22),
    "target_tree": (0.78, 0.22),
    "properties_box": (0.5, 0.52),
    "match_table": (0.5, 0.82),
}

_MOVE = EVENT_CODES[MouseEventType.MOVE.value]
_LEFT = EVENT_CODES[MouseEventType.LEFT_CLICK.value]
_RIGHT = EVENT_CODES[MouseEventType.RIGHT_CLICK.value]
_SCROLL = EVENT_CODES[MouseEventType.SCROLL.value]


def _region_centers(screen: tuple[int, int]) -> dict[str, tuple[float, float]]:
    rows, cols = screen
    return {
        name: (fraction_x * cols, fraction_y * rows)
        for name, (fraction_x, fraction_y) in SCREEN_REGIONS.items()
    }


def _visited_regions(traits: BehavioralTraits, rng: np.random.Generator) -> list[str]:
    """Which regions the matcher habitually visits, by exploration level."""
    ordered = ["match_table", "target_tree", "source_tree", "properties_box"]
    n_regions = 1 + int(round(traits.exploration * (len(ordered) - 1)))
    n_regions = int(np.clip(n_regions, 1, len(ordered)))
    regions = ordered[:n_regions]
    rng.shuffle(regions)
    return regions


def _decision_windows(history: DecisionHistory) -> tuple[np.ndarray, np.ndarray]:
    """Per-decision wander windows ``[start_d, end_d]``.

    ``end_d`` is the decision's timestamp; the next window starts shortly
    after it (1% of the window's duration, at least 5 ms).  Deterministic
    given the history — no randomness is consumed.
    """
    ends = history.timestamps()
    starts = np.zeros_like(ends)
    previous_time = 0.0
    for index, end in enumerate(ends):
        starts[index] = previous_time
        duration = max(end - previous_time, 0.5)
        previous_time = end + 0.01 * duration
    return starts, ends


def _predraw(
    history: DecisionHistory,
    regions: list[str],
    events_per_decision: int,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Draw every decision's randomness up front, in a fixed block order.

    The blocks (event counts, time fractions, region picks, x/y jitter,
    event-type rolls) are the entire randomness of the trace; both the
    vectorized assembly and the scalar test oracle consume them
    identically, which is what makes the two bitwise-equal.
    """
    n_decisions = len(history)
    n_events = np.maximum(3, rng.poisson(events_per_decision, size=n_decisions))
    total = int(n_events.sum())
    return {
        "n_events": n_events,
        "time_fractions": rng.random(total),
        "region_picks": rng.integers(0, len(regions), size=total),
        "dx": rng.normal(0.0, 1.0, size=total),
        "dy": rng.normal(0.0, 1.0, size=total),
        "rolls": rng.random(total),
    }


def simulate_movement(
    history: DecisionHistory,
    traits: BehavioralTraits,
    screen: tuple[int, int] = MovementMap.DEFAULT_SCREEN,
    events_per_decision: int = 9,
    rng: Optional[np.random.Generator] = None,
) -> MovementMap:
    """Simulate the mouse trace accompanying a decision history."""
    rng = rng or np.random.default_rng()
    traits = traits.clipped()
    if history.is_empty:
        return MovementMap((), screen=screen)

    centers = _region_centers(screen)
    regions = _visited_regions(traits, rng)
    draws = _predraw(history, regions, events_per_decision, rng)
    starts, ends = _decision_windows(history)
    return _assemble_columnar(draws, starts, ends, regions, centers, traits, screen)


def _assemble_columnar(
    draws: dict[str, np.ndarray],
    starts: np.ndarray,
    ends: np.ndarray,
    regions: list[str],
    centers: dict[str, tuple[float, float]],
    traits: BehavioralTraits,
    screen: tuple[int, int],
) -> MovementMap:
    """Vectorized trace assembly from the pre-drawn randomness blocks."""
    rows, cols = screen
    spread_x = cols * 0.08
    spread_y = rows * 0.07
    n_events = draws["n_events"]
    n_decisions = n_events.size
    total = int(n_events.sum())
    decision_idx = np.repeat(np.arange(n_decisions), n_events)
    offsets = np.concatenate(([0], np.cumsum(n_events)))

    # Timestamps: scale each decision's uniform fractions into its window,
    # then sort within the decision (the flat layout keeps decisions
    # contiguous, so a stable two-key sort does every decision at once).
    span = ends - starts
    timestamps = starts[decision_idx] + span[decision_idx] * draws["time_fractions"]
    order = np.lexsort((timestamps, decision_idx))
    timestamps = timestamps[order]

    # Attributes bind to the post-sort event position: the last event of
    # every decision window is the committing left click at the match
    # table, the others wander between the habitual regions.
    is_last = np.zeros(total, dtype=bool)
    is_last[offsets[1:] - 1] = True

    region_cx = np.array([centers[name][0] for name in regions])
    region_cy = np.array([centers[name][1] for name in regions])
    center_x = region_cx[draws["region_picks"]]
    center_y = region_cy[draws["region_picks"]]
    center_x[is_last] = centers["match_table"][0]
    center_y[is_last] = centers["match_table"][1]

    x = np.clip(center_x + spread_x * draws["dx"], 0, cols - 1)
    y = np.clip(center_y + spread_y * draws["dy"], 0, rows - 1)

    rolls = draws["rolls"]
    scroll_cut = traits.scroll_tendency * 0.3
    codes = np.full(total, _MOVE, dtype=np.int64)
    codes[rolls < scroll_cut + 0.03] = _RIGHT
    codes[rolls < scroll_cut] = _SCROLL
    codes[is_last] = _LEFT

    return MovementMap.from_arrays(x, y, codes, timestamps, screen=screen, validate=False)

"""Phi_Mou(G): aggregated mouse-movement features.

Follows the behavioural-trace literature the paper cites (Rzeszotarski &
Kittur's "instrumenting the crowd", Goyal et al., Wu & Bailey): totals and
averages of movement, per-event-type counts, screen coverage and the mean
"on focus" position, plus the mass the matcher spends in each UI region of
the Ontobuilder layout.

``extract_batch`` is a population kernel: the events of every matcher are
concatenated once.  Counts, heat maps, coverage, region masses and
durations are one pass over that concatenation; the mean position and the
path length are reduced per group of matchers with the same event count
(:mod:`repro.core.features.ragged`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.features.base import FeatureBlock, FeatureExtractor
from repro.core.features.ragged import equal_length_blocks, offsets
from repro.matching.events import EVENT_CODES, N_EVENT_TYPES, bin_cells
from repro.matching.matcher import HumanMatcher

_FEATURE_NAMES = (
    "totalLength",
    "totalTime",
    "meanSpeed",
    "countEvents",
    "avgX",
    "avgY",
    "countMove",
    "countLeftClick",
    "countRightClick",
    "countScroll",
    "scrollRatio",
    "clickRatio",
    "coverage",
    "massTopLeft",
    "massTopRight",
    "massBottom",
    "eventsPerDecision",
)

#: The heat-map grid coverage and region masses are read from.
_GRID = (24, 32)
_GRID_CELLS = _GRID[0] * _GRID[1]

#: Event types of ``countMove`` .. ``countScroll``, in column order.
_COUNTED_TYPES = ("move", "left", "right", "scroll")


class MouseFeatures(FeatureExtractor):
    """Aggregated features over the movement map."""

    set_name = "mou"
    requires_fitting = False

    def feature_names(self) -> list[str]:
        return [self._prefixed(name) for name in _FEATURE_NAMES]

    def extract_batch(self, matchers: Sequence[HumanMatcher]) -> FeatureBlock:
        names = self.feature_names()
        n = len(matchers)
        matrix = np.zeros((n, len(names)))
        if not n:
            return FeatureBlock(names, matrix)
        stores = [matcher.movement.data for matcher in matchers]
        screens = np.array([matcher.movement.screen for matcher in matchers], dtype=np.int64)
        n_decisions = np.array([len(matcher.history) for matcher in matchers], dtype=np.int64)
        n_events = np.array([len(store) for store in stores], dtype=np.int64)
        x = np.concatenate([store.x for store in stores])
        y = np.concatenate([store.y for store in stores])
        codes = np.concatenate([store.codes for store in stores])
        t = np.concatenate([store.t for store in stores])
        starts, owner = offsets(n_events)
        screen_rows, screen_cols = screens[:, 0], screens[:, 1]

        # Path length and mean position: float reductions, one (m, k) block
        # per event count.  An empty movement sits at the screen centre.
        segments = np.sqrt(np.diff(x) ** 2 + np.diff(y) ** 2)
        mean_x = screen_cols / 2.0
        mean_y = screen_rows / 2.0
        for members, index in equal_length_blocks(n_events):
            matrix[members, 0] = segments[index[:, :-1]].sum(axis=1)
            mean_x[members] = x[index].mean(axis=1)
            mean_y[members] = y[index].mean(axis=1)
        moved = n_events >= 2
        matrix[moved, 1] = t[starts[moved] + n_events[moved] - 1] - t[starts[moved]]
        np.divide(matrix[:, 0], matrix[:, 1], out=matrix[:, 2], where=matrix[:, 1] > 0)
        matrix[:, 3] = n_events
        matrix[:, 4] = mean_x / screen_cols
        matrix[:, 5] = mean_y / screen_rows

        counts = np.bincount(owner * N_EVENT_TYPES + codes, minlength=n * N_EVENT_TYPES)
        counts = counts.reshape(n, N_EVENT_TYPES)
        matrix[:, 6:10] = counts[:, [EVENT_CODES[value] for value in _COUNTED_TYPES]]
        total = np.maximum(n_events, 1)
        matrix[:, 10] = counts[:, EVENT_CODES["scroll"]] / total
        matrix[:, 11] = counts[:, EVENT_CODES["left"]] / total

        # Heat maps: each event binned on its own matcher's screen, every
        # matcher's grid filled by one bincount over offset cell ids.
        cells = bin_cells(x, y, screen_rows[owner], screen_cols[owner], _GRID)
        heat = np.bincount(owner * _GRID_CELLS + cells, minlength=n * _GRID_CELLS)
        heat = heat.reshape(n, *_GRID)
        matrix[:, 12] = np.count_nonzero(heat, axis=(1, 2)) / _GRID_CELLS
        # Mass per UI region (quadrants of the Ontobuilder layout).
        regions = (
            heat[:, :12, :16].sum(axis=(1, 2)),
            heat[:, :12, 16:].sum(axis=(1, 2)),
            heat[:, 12:, :].sum(axis=(1, 2)),
        )
        for column, mass in enumerate(regions, start=13):
            np.divide(mass, n_events, out=matrix[:, column], where=n_events > 0)

        np.divide(n_events, n_decisions, out=matrix[:, 16], where=n_decisions > 0)
        return FeatureBlock(names, matrix)

    def config_fingerprint(self) -> str:
        return "MouseFeatures:v1"

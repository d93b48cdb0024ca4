"""Per-matcher oracles for the Phi_Beh and Phi_Mou population kernels.

``mouse_rows`` and ``behavioral_rows`` are the per-matcher bodies of
``MouseFeatures.extract_batch`` and ``BehavioralFeatures.extract_batch``
before they became one pass over the ragged population.  The kernels must
equal these bit for bit on every population, in input order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.features.consensus import ConsensusModel
from repro.matching.matcher import HumanMatcher
from repro.matching.mouse import MouseEventType


def _safe_stats(values: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, std, min, max) of a possibly empty vector."""
    if values.size == 0:
        return (0.0, 0.0, 0.0, 0.0)
    return (
        float(values.mean()),
        float(values.std()),
        float(values.min()),
        float(values.max()),
    )


def mouse_row(matcher: HumanMatcher) -> np.ndarray:
    """The 17 Phi_Mou features of one matcher."""
    row = np.zeros(17)
    movement = matcher.movement
    n_events = len(movement)

    row[0] = movement.path_length()
    row[1] = movement.duration()
    row[2] = movement.mean_speed()
    row[3] = n_events

    mean_x, mean_y = movement.mean_position()
    rows, cols = movement.screen
    row[4] = mean_x / cols if cols else 0.0
    row[5] = mean_y / rows if rows else 0.0

    counts = movement.count_by_type()
    total = max(n_events, 1)
    row[6] = counts[MouseEventType.MOVE]
    row[7] = counts[MouseEventType.LEFT_CLICK]
    row[8] = counts[MouseEventType.RIGHT_CLICK]
    row[9] = counts[MouseEventType.SCROLL]
    row[10] = counts[MouseEventType.SCROLL] / total
    row[11] = counts[MouseEventType.LEFT_CLICK] / total

    heat_map = movement.heat_map(shape=(24, 32))
    row[12] = heat_map.coverage()

    # Mass per UI region (quadrants of the Ontobuilder layout).
    half_rows = 12
    half_cols = 16
    row[13] = heat_map.region_mass(slice(0, half_rows), slice(0, half_cols))
    row[14] = heat_map.region_mass(slice(0, half_rows), slice(half_cols, 32))
    row[15] = heat_map.region_mass(slice(half_rows, 24), slice(0, 32))

    row[16] = n_events / len(matcher.history) if len(matcher.history) else 0.0
    return row


def behavioral_row(matcher: HumanMatcher, consensus: Optional[ConsensusModel]) -> np.ndarray:
    """The 22 Phi_Beh features of one matcher."""
    row = np.zeros(22)
    history = matcher.history
    confidences = history.confidences()
    times = history.inter_decision_times()
    n_decisions = len(history)
    duration = history.duration()

    row[0:4] = _safe_stats(confidences)
    row[4:8] = _safe_stats(times)
    row[8] = duration
    row[9] = n_decisions
    row[10] = len(history.decided_pairs())
    mind_changes = history.n_mind_changes()
    row[11] = mind_changes
    row[12] = mind_changes / n_decisions if n_decisions else 0.0
    row[13] = n_decisions / duration if duration > 0 else 0.0

    matching_matrix = matcher.matrix()
    row[14] = matching_matrix.density
    row[15] = matching_matrix.mean_confidence()

    if n_decisions >= 4:
        half = n_decisions // 2
        row[16] = float(confidences[half:].mean() - confidences[:half].mean())
        row[17] = float(times[half:].mean() - times[:half].mean())

    if consensus is not None and consensus.is_fitted:
        agreements = np.array([consensus.agreement(d.pair) for d in history])
    else:
        agreements = np.zeros(0)
    row[18:22] = _safe_stats(agreements)
    return row


def mouse_rows(matchers: Sequence[HumanMatcher]) -> np.ndarray:
    """The Phi_Mou block of ``matchers``: one oracle call per matcher."""
    return np.array([mouse_row(matcher) for matcher in matchers]).reshape(len(matchers), 17)


def behavioral_rows(
    matchers: Sequence[HumanMatcher], consensus: Optional[ConsensusModel] = None
) -> np.ndarray:
    """The Phi_Beh block of ``matchers``: one oracle call per matcher."""
    rows = [behavioral_row(matcher, consensus) for matcher in matchers]
    return np.array(rows).reshape(len(matchers), 22)

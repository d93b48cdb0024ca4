"""Mouse-trace generator tests: the vectorized generator vs its scalar oracle."""

import numpy as np
import pytest

from repro.matching.history import DecisionHistory
from repro.matching.mouse import MouseEventType
from repro.simulation.archetypes import ARCHETYPE_LIBRARY, BehavioralTraits
from repro.simulation.decisions import simulate_history
from repro.simulation.mouse_sim import MOUSE_TRACE_VERSION, simulate_movement
from repro.simulation.schemas import build_small_task
from tests.oracles.simulation import simulate_movement_reference


@pytest.fixture(scope="module")
def histories():
    pair, reference = build_small_task(random_state=9)
    traits = list(ARCHETYPE_LIBRARY.values())
    return [
        (
            simulate_history(pair, reference, traits[seed % 4], rng=np.random.default_rng(seed)),
            traits[seed % 4],
        )
        for seed in range(6)
    ]


class TestColumnarEngine:
    def test_bitwise_equal_to_reference_consumer(self, histories):
        """The vectorized assembly consumes the pre-drawn randomness exactly
        like the retained scalar reference walk (the PR 2 convention)."""
        for seed, (history, traits) in enumerate(histories):
            fast = simulate_movement(history, traits, rng=np.random.default_rng(seed))
            scalar = simulate_movement_reference(
                history, traits, rng=np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(fast.data.x, scalar.data.x)
            np.testing.assert_array_equal(fast.data.y, scalar.data.y)
            np.testing.assert_array_equal(fast.data.codes, scalar.data.codes)
            np.testing.assert_array_equal(fast.data.t, scalar.data.t)

    def test_deterministic_given_seed(self, histories):
        history, traits = histories[0]
        a = simulate_movement(history, traits, rng=np.random.default_rng(5))
        b = simulate_movement(history, traits, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.data.t, b.data.t)
        np.testing.assert_array_equal(a.data.x, b.data.x)

    def test_every_decision_commits_with_a_click(self, histories):
        history, traits = histories[1]
        movement = simulate_movement(history, traits, rng=np.random.default_rng(0))
        counts = movement.count_by_type()
        assert counts[MouseEventType.LEFT_CLICK] >= len(history)
        assert len(movement) >= 3 * len(history)

    def test_events_stay_on_screen_and_in_decision_range(self, histories):
        history, traits = histories[2]
        screen = (300, 400)
        movement = simulate_movement(history, traits, screen=screen, rng=np.random.default_rng(1))
        data = movement.data
        assert (data.x >= 0).all() and (data.x <= screen[1] - 1).all()
        assert (data.y >= 0).all() and (data.y <= screen[0] - 1).all()
        assert data.t[-1] <= history.timestamps()[-1] + 1e-9
        assert (np.diff(data.t) >= 0).all()

    def test_empty_history_gives_empty_movement(self):
        for simulate in (simulate_movement, simulate_movement_reference):
            movement = simulate(DecisionHistory(shape=(2, 2)), BehavioralTraits())
            assert movement.is_empty

    def test_trace_version_bumped(self):
        assert MOUSE_TRACE_VERSION == 2

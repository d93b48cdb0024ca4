"""Offline feature rows depend on their own matcher alone.

The serving layer splits a batch into extraction chunks whose number
depends on the runner, and its scores must not: an ``lrsm`` / ``beh`` /
``mou`` row must not depend on what else shares the extraction call.
Over ragged populations (empty and long
histories and movement streams, several matrix shapes, lengths on both
sides of NumPy's pairwise-summation blocks), every row extracted from a
population must equal, bit for bit, the same row extracted from any
sub-population that contains it: single matchers, pairs and reordered
subsets.  The neural sets are exempt (their batch-1 products differ), so
the chunk plan never cuts a singleton chunk.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features.behavioral import BehavioralFeatures
from repro.core.features.consensus import ConsensusModel
from repro.core.features.mouse import MouseFeatures
from repro.core.features.predictors import LRSMFeatures
from repro.matching.history import Decision, DecisionHistory
from repro.matching.matcher import HumanMatcher
from repro.matching.mouse import MovementMap

SHAPES = ((0, 0), (1, 1), (3, 2), (6, 6), (7, 9), (12, 15))
SCREENS = ((768, 1024), (600, 800), (1, 1))
#: Event counts around the 8-wide unrolled and 128-wide pairwise blocks.
EVENT_COUNTS = (0, 1, 2, 7, 8, 9, 16, 127, 128, 129, 300)


@st.composite
def matchers(draw, index: int) -> HumanMatcher:
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_decisions = 0 if shape == (0, 0) else draw(st.integers(0, 40))
    gaps = rng.choice([0.0, 0.5, 3.0], n_decisions) + rng.exponential(2.0, n_decisions)
    times = np.cumsum(gaps)
    decisions = [
        Decision(
            row=int(rng.integers(shape[0])),
            col=int(rng.integers(shape[1])),
            confidence=float(rng.choice([0.0, 1.0, rng.random()])),
            timestamp=float(time),
        )
        for time in times
    ]
    n_events = draw(st.sampled_from(EVENT_COUNTS))
    movement = MovementMap.from_arrays(
        rng.uniform(-50.0, 1100.0, n_events),
        rng.uniform(-50.0, 800.0, n_events),
        rng.integers(0, 4, n_events),
        np.sort(rng.choice([0.0, 1.0, 50.0], n_events) + rng.uniform(0.0, 100.0, n_events)),
        screen=draw(st.sampled_from(SCREENS)),
    )
    return HumanMatcher(f"m{index}", DecisionHistory(decisions, shape=shape), movement)


@st.composite
def populations(draw, max_size: int = 8) -> list[HumanMatcher]:
    return [draw(matchers(index)) for index in range(draw(st.integers(1, max_size)))]


def _extractors(consensus):
    return {
        "lrsm": LRSMFeatures(),
        "beh": BehavioralFeatures(consensus),
        "mou": MouseFeatures(),
    }


@settings(max_examples=60, deadline=None)
@given(
    population=populations(),
    training=populations(),
    data=st.data(),
)
def test_rows_equal_across_sub_populations(population, training, data):
    n = len(population)
    subsets = [[index] for index in range(n)]
    if n > 1:
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        subsets.append(data.draw(pair))
    subsets.append(data.draw(st.permutations(range(n)))[: max(1, n - 1)])
    for name, extractor in _extractors(ConsensusModel().fit(training)).items():
        whole = extractor.extract_batch(population).matrix
        for subset in subsets:
            part = extractor.extract_batch([population[index] for index in subset]).matrix
            assert part.tobytes() == whole[subset].tobytes(), (name, subset)

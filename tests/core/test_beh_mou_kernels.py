"""Phi_Beh and Phi_Mou population kernels: bitwise equal to the per-matcher oracles.

The kernels concatenate a ragged population once, take exact aggregates
over the concatenation and reduce floats per equal-length group.  Every
row must equal the per-matcher body in ``tests/oracles/features.py`` bit
for bit, whatever else shares the chunk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features.base import FeatureBlock
from repro.core.features.behavioral import BehavioralFeatures
from repro.core.features.consensus import ConsensusModel
from repro.core.features.mouse import MouseFeatures
from repro.matching.history import Decision, DecisionHistory
from repro.matching.matcher import HumanMatcher
from repro.matching.mouse import MovementMap
from repro.shard.replay import synthetic_traces
from tests.oracles.features import behavioral_rows, mouse_rows

SCREENS = ((768, 1024), (600, 800), (37, 53), (1, 1))
SHAPES = ((0, 0), (1, 1), (2, 3), (3, 2), (4, 4))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def histories(draw) -> DecisionHistory:
    """0-8 decisions on a small (or empty) matrix: revisits, zero confidences, ties."""
    shape = draw(st.sampled_from(SHAPES))
    if shape == (0, 0):
        return DecisionHistory(shape=shape)
    decisions = []
    time = draw(st.floats(0.0, 5.0))
    for _ in range(draw(st.integers(0, 8))):
        time += draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 20.0))
        decisions.append(
            Decision(
                row=draw(st.integers(0, shape[0] - 1)),
                col=draw(st.integers(0, shape[1] - 1)),
                confidence=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                timestamp=time,
            )
        )
    return DecisionHistory(decisions, shape=shape)


@st.composite
def movements(draw) -> MovementMap:
    """0-10 events on one of several screens, off-screen and negative positions included."""
    n = draw(st.integers(0, 10))
    position = st.floats(-2000.0, 3000.0)
    x = [draw(position) for _ in range(n)]
    y = [draw(position) for _ in range(n)]
    codes = [draw(st.integers(0, 3)) for _ in range(n)]
    t = [draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 50.0)) for _ in range(n)]
    return MovementMap.from_arrays(
        np.array(x), np.array(y), np.array(codes, dtype=np.int64), np.array(t),
        screen=draw(st.sampled_from(SCREENS)),
    )


@st.composite
def populations(draw) -> list[HumanMatcher]:
    size = draw(st.integers(1, 12))
    return [
        HumanMatcher(f"m{index}", draw(histories()), draw(movements()))
        for index in range(size)
    ]


def _assert_behavioral(matchers, consensus):
    block = BehavioralFeatures(consensus).extract_batch(matchers)
    expected = FeatureBlock(block.names, behavioral_rows(matchers, consensus))
    assert _bits(block.matrix) == _bits(expected.matrix)


def _assert_mouse(matchers):
    block = MouseFeatures().extract_batch(matchers)
    expected = FeatureBlock(block.names, mouse_rows(matchers))
    assert _bits(block.matrix) == _bits(expected.matrix)


class TestRaggedPopulations:
    @settings(max_examples=80, deadline=None)
    @given(populations(), st.sampled_from(["unfitted", "self", "other"]), populations())
    def test_behavioral_bitwise_equal_to_oracle(self, matchers, consensus_kind, others):
        consensus = {
            "unfitted": None,
            "self": ConsensusModel().fit(matchers),
            "other": ConsensusModel().fit(others),
        }[consensus_kind]
        _assert_behavioral(matchers, consensus)

    @settings(max_examples=80, deadline=None)
    @given(populations())
    def test_mouse_bitwise_equal_to_oracle(self, matchers):
        _assert_mouse(matchers)


class TestEdgeCases:
    def _matcher(self, decisions=(), shape=(0, 0), x=(), y=(), t=(), screen=(768, 1024)):
        n = len(x)
        movement = MovementMap.from_arrays(
            np.array(x, dtype=float), np.array(y, dtype=float),
            np.zeros(n, dtype=np.int64), np.array(t, dtype=float), screen=screen,
        )
        history = DecisionHistory([Decision(*d) for d in decisions], shape=shape)
        return HumanMatcher("edge", history, movement)

    def test_empty_matcher_rows(self):
        empty = self._matcher(screen=(600, 800))
        mouse = MouseFeatures().extract_batch([empty]).matrix[0]
        # An empty movement sits at the screen centre: (cols / 2.0) / cols.
        assert _bits(mouse[4:6]) == _bits([(800 / 2.0) / 800, (600 / 2.0) / 600])
        assert not mouse[:4].any() and not mouse[6:].any()
        behavioral = BehavioralFeatures().extract_batch([empty]).matrix[0]
        assert not behavioral.any()

    def test_latest_zero_confidence_is_not_selected(self):
        revisited = self._matcher(
            decisions=[(0, 0, 0.8, 1.0), (1, 1, 0.4, 2.0), (0, 0, 0.0, 3.0)], shape=(2, 2)
        )
        block = BehavioralFeatures().extract_batch([revisited])
        assert block.column("beh_matrixDensity")[0] == 1 / 4
        assert block.column("beh_matrixMeanConf")[0] == 0.4
        assert block.column("beh_countMindChange")[0] == 1
        _assert_behavioral([revisited], None)

    def test_short_histories_have_no_drift(self):
        matchers = [
            self._matcher(decisions=[(0, 0, 0.5, float(i)) for i in range(k)], shape=(1, 1))
            for k in (1, 2, 3, 4)
        ]
        block = BehavioralFeatures().extract_batch(matchers)
        assert not block.column("beh_confDrift")[:3].any()
        assert not block.column("beh_paceDrift")[:3].any()
        assert block.column("beh_paceDrift")[3] != 0.0
        _assert_behavioral(matchers, None)

    def test_single_event_and_off_screen_positions(self):
        matchers = [
            self._matcher(x=[5.0], y=[7.0], t=[1.0]),
            self._matcher(x=[-50.0, 5000.0, 10.0], y=[-1.0, 9000.0, 3.0], t=[1.0, 1.0, 2.0],
                          screen=(37, 53)),
        ]
        block = MouseFeatures().extract_batch(matchers)
        assert block.column("mou_totalLength")[0] == 0.0
        assert block.column("mou_coverage")[1] == 3 / 768
        _assert_mouse(matchers)


class TestReplayPopulations:
    """The synthetic sessions the streaming and fleet replays score, in chunks."""

    @pytest.fixture(scope="class")
    def sessions(self):
        traces = synthetic_traces(48, seed=3, n_decisions=12)
        return [trace.to_matcher() for trace in traces]

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunks_bitwise_equal_to_oracle(self, sessions, chunk):
        consensus = ConsensusModel().fit(sessions[:20])
        for start in range(0, len(sessions), chunk):
            part = sessions[start : start + chunk]
            _assert_mouse(part)
            _assert_behavioral(part, consensus)

    def test_truncated_prefixes(self, sessions):
        prefixes = [matcher.truncated(index % 9) for index, matcher in enumerate(sessions)]
        _assert_mouse(prefixes)
        _assert_behavioral(prefixes, ConsensusModel().fit(sessions))

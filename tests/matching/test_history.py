"""Tests for the decision history and its Eq. 1 matrix projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.history import Decision, DecisionHistory, stack_matrices


class TestDecision:
    def test_valid(self):
        decision = Decision(row=0, col=1, confidence=0.8, timestamp=3.0)
        assert decision.pair == (0, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"row": -1, "col": 0, "confidence": 0.5, "timestamp": 0.0},
            {"row": 0, "col": 0, "confidence": 1.5, "timestamp": 0.0},
            {"row": 0, "col": 0, "confidence": 0.5, "timestamp": -1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Decision(**kwargs)


class TestHistoryBasics:
    def test_sorted_by_timestamp(self):
        history = DecisionHistory(
            [
                Decision(0, 0, 0.5, timestamp=10.0),
                Decision(0, 1, 0.5, timestamp=2.0),
            ],
            shape=(2, 2),
        )
        assert history[0].timestamp == 2.0

    def test_infer_shape(self):
        history = DecisionHistory([Decision(2, 3, 0.5, 1.0)])
        assert history.shape == (3, 4)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="outside"):
            DecisionHistory([Decision(5, 0, 0.5, 1.0)], shape=(2, 2))

    def test_empty(self):
        history = DecisionHistory(shape=(2, 2))
        assert history.is_empty
        assert history.duration() == 0.0
        assert history.mean_confidence() == 0.0

    def test_example_confidences_and_times(self, example_history):
        np.testing.assert_allclose(
            example_history.confidences(), [1.0, 0.9, 0.5, 0.5, 0.45]
        )
        np.testing.assert_allclose(
            example_history.inter_decision_times(), [3.0, 5.0, 7.0, 1.0, 18.0]
        )

    def test_duration(self, example_history):
        assert example_history.duration() == pytest.approx(31.0)

    def test_columns_in_sequence_order(self, example_history):
        columns = example_history.columns()
        assert columns.shape == (5, 4) and columns.dtype == np.float64
        assert columns[1].tolist() == [0.0, 0.0, 0.9, 8.0]
        assert columns[:, 2].tolist() == example_history.confidences().tolist()
        assert columns[:, 3].tolist() == example_history.timestamps().tolist()

    def test_columns_are_memoised_and_read_only(self, example_history):
        columns = example_history.columns()
        assert example_history.columns() is columns
        with pytest.raises(ValueError):
            columns[0, 2] = 0.0
        # Derived vectors are writable copies, not views of the memo.
        confidences = example_history.confidences()
        confidences[0] = 0.0
        assert columns[0, 2] == 1.0

    def test_empty_columns(self):
        assert DecisionHistory().columns().shape == (0, 4)


class TestProjection:
    def test_latest_confidence_wins(self, example_history):
        matrix = example_history.to_matrix()
        # The pair (0, 0) was decided at 0.9 then lowered to 0.5 at time 16.
        assert matrix[0, 0] == pytest.approx(0.5)
        assert matrix[2, 3] == pytest.approx(1.0)
        assert matrix.n_nonzero == 4

    def test_example_mind_changes(self, example_history):
        assert example_history.n_mind_changes() == 1
        assert example_history.revisited_pairs() == [(0, 0)]

    def test_decided_pairs_order(self, example_history):
        assert example_history.decided_pairs() == [(2, 3), (0, 0), (0, 1), (1, 0)]

    def test_prefix(self, example_history):
        prefix = example_history.prefix(2)
        assert len(prefix) == 2
        assert prefix.to_matrix()[0, 0] == pytest.approx(0.9)

    def test_window(self, example_history):
        window = example_history.window(1, 2)
        assert len(window) == 2
        assert window[0].pair == (0, 0)

    def test_drop_first(self, example_history):
        assert len(example_history.drop_first(3)) == 2

    def test_filter_mask_length_checked(self, example_history):
        with pytest.raises(ValueError):
            example_history.filter([True])

    def test_with_decision(self, example_history):
        extended = example_history.with_decision(Decision(1, 1, 0.2, 50.0))
        assert len(extended) == len(example_history) + 1
        assert len(example_history) == 5  # original untouched


@st.composite
def histories(draw):
    n = draw(st.integers(1, 25))
    decisions = []
    time = 0.0
    for _ in range(n):
        time += draw(st.floats(0.1, 10.0))
        decisions.append(
            Decision(
                row=draw(st.integers(0, 4)),
                col=draw(st.integers(0, 4)),
                confidence=draw(st.floats(0.0, 1.0)),
                timestamp=time,
            )
        )
    return DecisionHistory(decisions, shape=(5, 5))


class TestProperties:
    @given(histories())
    @settings(max_examples=40, deadline=None)
    def test_projection_matches_latest_decision(self, history):
        matrix = history.to_matrix()
        for pair, decision in history.latest_decisions().items():
            assert matrix[pair] == pytest.approx(decision.confidence)

    @given(histories())
    @settings(max_examples=40, deadline=None)
    def test_nonzero_entries_subset_of_decided_pairs(self, history):
        assert history.to_matrix().nonzero_entries() <= set(history.decided_pairs())

    @given(histories(), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_prefix_length(self, history, k):
        assert len(history.prefix(k)) == min(k, len(history))

    @given(histories())
    @settings(max_examples=40, deadline=None)
    def test_inter_decision_times_non_negative(self, history):
        assert (history.inter_decision_times() >= 0).all()

    @given(histories())
    @settings(max_examples=40, deadline=None)
    def test_mind_changes_consistent_with_distinct_pairs(self, history):
        assert history.n_mind_changes() == len(history) - len(history.decided_pairs())


@st.composite
def same_shape_histories(draw):
    """A shape and 0-6 histories of it: empty ones, revisited pairs, tied timestamps."""
    shape = draw(st.sampled_from([(0, 0), (1, 1), (3, 2), (5, 5)]))
    decision = st.builds(
        Decision,
        row=st.integers(0, max(shape[0] - 1, 0)),
        col=st.integers(0, max(shape[1] - 1, 0)),
        confidence=st.floats(0.0, 1.0),
        timestamp=st.sampled_from([0.0, 1.0, 2.5]),
    )
    most = 12 if shape[0] else 0
    group = draw(st.lists(st.lists(decision, max_size=most), max_size=6))
    return shape, [DecisionHistory(decisions, shape=shape) for decisions in group]


@given(same_shape_histories())
@settings(max_examples=80, deadline=None)
def test_stack_matrices_equals_stacked_projections(case):
    """The batch projection is bitwise the per-history ``to_matrix`` stack."""
    shape, group = case
    expected = np.zeros((len(group),) + shape)
    for index, history in enumerate(group):
        expected[index] = history.to_matrix().values
    assert stack_matrices(group, shape).tobytes() == expected.tobytes()

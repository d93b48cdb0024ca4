"""StreamingEventBuffer: growth, ordering validation, reorder window, drains."""

import warnings

import numpy as np
import pytest

from repro.matching.events import EventArray
from repro.stream import StreamingEventBuffer, StreamOrderError
from repro.stream.quarantine import QuarantineLog

from tests.stream.conftest import jittered, random_trace


class TestMonotonicIngestion:
    def test_single_appends_grow_amortized(self):
        buffer = StreamingEventBuffer(initial_capacity=2)
        for index in range(100):
            buffer.append(float(index), float(index), index % 4, float(index))
        assert len(buffer) == 100
        assert buffer.n_committed == 100  # window 0: everything commits
        committed = buffer.committed()
        np.testing.assert_array_equal(committed.t, np.arange(100.0))
        np.testing.assert_array_equal(committed.codes, np.arange(100) % 4)

    def test_equal_timestamps_allowed_and_stable(self):
        buffer = StreamingEventBuffer()
        buffer.extend([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0, 1, 2], [5.0, 5.0, 5.0])
        buffer.append(4.0, 0.0, 3, 5.0)
        np.testing.assert_array_equal(buffer.committed().x, [1.0, 2.0, 3.0, 4.0])

    def test_regression_rejected_without_window(self):
        buffer = StreamingEventBuffer()
        buffer.append(0.0, 0.0, 0, 10.0)
        with pytest.raises(StreamOrderError):
            buffer.append(0.0, 0.0, 0, 9.999)

    def test_regression_within_one_batch_rejected(self):
        buffer = StreamingEventBuffer()
        with pytest.raises(StreamOrderError):
            buffer.extend([0.0, 1.0], [0.0, 1.0], [0, 0], [5.0, 4.0])

    def test_invalid_events_rejected(self):
        buffer = StreamingEventBuffer()
        with pytest.raises(ValueError):
            buffer.append(0.0, 0.0, 9, 1.0)
        with pytest.raises(ValueError):
            buffer.append(0.0, 0.0, 0, -1.0)
        with pytest.raises(ValueError):
            buffer.append(0.0, 0.0, 0, float("nan"))
        with pytest.raises(ValueError):
            buffer.extend([0.0, 1.0], [0.0], [0], [1.0])
        with pytest.raises(ValueError):
            StreamingEventBuffer(reorder_window=-1.0)


class TestEventCodes:
    """Codes are checked before the int64 cast: never truncated, never overflowed."""

    @pytest.mark.parametrize(
        "codes",
        [[0, 1.7], [0.0, -0.5], [1e300, 0], np.array([1e300, 0.0]), [0, float("nan")],
         [float("inf"), 0], [0, 4.0], [0, 10**400]],
        ids=["fractional", "negative-fraction", "huge-list", "huge-array", "nan", "inf",
             "out-of-range-float", "beyond-float"],
    )
    def test_non_integer_codes_raise_value_error(self, codes):
        buffer = StreamingEventBuffer()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                buffer.extend([0.0, 1.0], [0.0, 1.0], codes, [1.0, 2.0])
        assert len(buffer) == 0

    @pytest.mark.parametrize(
        "codes", [[1.0, 3.0], np.array([1, 3], dtype=np.int32), np.array([1, 3], dtype=np.uint8)]
    )
    def test_integral_codes_are_stored_exactly(self, codes):
        buffer = StreamingEventBuffer()
        buffer.extend([0.0, 1.0], [0.0, 1.0], codes, [1.0, 2.0])
        committed = buffer.committed().codes
        assert committed.dtype == np.int64
        np.testing.assert_array_equal(committed, [1, 3])

    def test_screened_path_quarantines_non_integer_codes(self):
        buffer = StreamingEventBuffer()
        quarantine = QuarantineLog()
        codes = [0, 1.7, 1e300, float("nan"), 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            survivors = buffer.extend_screened(
                [0.0] * 5, [0.0] * 5, codes, [1.0, 2.0, 3.0, 4.0, 5.0], quarantine
            )
        assert survivors == 2
        np.testing.assert_array_equal(buffer.committed().codes, [0, 2])
        records = quarantine.records()
        assert [record.reason for record in records] == ["malformed"] * 3
        assert [record.code for record in records] == [-1, -1, -1]
        assert [record.t for record in records] == [2.0, 3.0, 4.0]
        assert "1.7 is not an integer" in records[0].detail


class TestReorderWindow:
    def test_in_window_arrivals_commit_in_time_order(self):
        buffer = StreamingEventBuffer(reorder_window=2.0)
        for t in (10.0, 9.0, 11.0, 10.5, 12.5):
            buffer.append(t, 0.0, 0, t)
        buffer.flush()
        np.testing.assert_array_equal(
            buffer.committed().t, [9.0, 10.0, 10.5, 11.0, 12.5]
        )

    def test_watermark_trails_maximum(self):
        buffer = StreamingEventBuffer(reorder_window=3.0)
        assert buffer.watermark == -np.inf
        buffer.append(0.0, 0.0, 0, 10.0)
        assert buffer.watermark == pytest.approx(7.0)
        # Events newer than the watermark wait in the pending region.
        assert buffer.n_pending == 1

    def test_late_beyond_window_rejected(self):
        buffer = StreamingEventBuffer(reorder_window=1.0)
        buffer.append(0.0, 0.0, 0, 10.0)
        buffer.append(0.0, 0.0, 0, 9.5)  # inside the window
        with pytest.raises(StreamOrderError):
            buffer.append(0.0, 0.0, 0, 8.9)

    def test_flush_is_a_barrier(self):
        buffer = StreamingEventBuffer(reorder_window=5.0)
        buffer.append(0.0, 0.0, 0, 10.0)
        buffer.flush()
        assert buffer.n_pending == 0
        assert buffer.n_committed == 1
        # The flushed maximum is final: in-window stragglers are now late.
        with pytest.raises(StreamOrderError):
            buffer.append(0.0, 0.0, 0, 9.0)
        buffer.append(0.0, 0.0, 0, 10.0)  # at the barrier is still fine

    def test_snapshot_includes_pending(self):
        buffer = StreamingEventBuffer(reorder_window=10.0)
        buffer.extend([1.0, 2.0], [0.0, 0.0], [0, 1], [5.0, 3.0])
        assert buffer.n_committed == 0
        snapshot = buffer.snapshot()
        np.testing.assert_array_equal(snapshot.t, [3.0, 5.0])
        np.testing.assert_array_equal(snapshot.codes, [1, 0])


class TestDrain:
    def test_each_committed_event_delivered_exactly_once(self):
        rng = np.random.default_rng(0)
        x, y, codes, t = random_trace(rng, 60)
        buffer = StreamingEventBuffer()
        seen = []
        for start in range(0, 60, 7):
            buffer.extend(
                x[start : start + 7], y[start : start + 7],
                codes[start : start + 7], t[start : start + 7],
            )
            seen.append(buffer.drain())
        total = sum(len(chunk) for chunk in seen)
        assert total == 60
        np.testing.assert_array_equal(
            np.concatenate([chunk.t for chunk in seen]), buffer.committed().t
        )
        assert len(buffer.drain()) == 0  # nothing new

    def test_window_slicing_uses_committed_region(self):
        buffer = StreamingEventBuffer()
        buffer.extend([1.0, 2.0, 3.0], [0.0] * 3, [0] * 3, [1.0, 2.0, 3.0])
        window = buffer.window(1.5, 2.5)
        np.testing.assert_array_equal(window.t, [2.0])


class TestSnapshotEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 3, 17])
    def test_snapshot_matches_one_shot_event_array(self, chunk_size):
        rng = np.random.default_rng(7)
        columns = jittered(random_trace(rng, 80), rng, lag=4.0)
        buffer = StreamingEventBuffer(reorder_window=4.0)
        x, y, codes, t = columns
        for start in range(0, 80, chunk_size):
            sl = slice(start, start + chunk_size)
            buffer.extend(x[sl], y[sl], codes[sl], t[sl])
        reference = EventArray(x, y, codes, t)
        for stage in ("streaming", "flushed"):
            if stage == "flushed":
                buffer.flush()
                assert buffer.n_pending == 0
            snapshot = buffer.snapshot()
            for column in ("x", "y", "codes", "t"):
                np.testing.assert_array_equal(
                    getattr(snapshot, column), getattr(reference, column), err_msg=stage
                )


class TestStateRoundTrip:
    def test_state_restores_future_behaviour(self):
        rng = np.random.default_rng(11)
        x, y, codes, t = jittered(random_trace(rng, 40), rng, lag=3.0)
        original = StreamingEventBuffer(reorder_window=3.0)
        original.extend(x[:25], y[:25], codes[:25], t[:25])
        original.drain()
        restored = StreamingEventBuffer.from_state(original.state())
        assert restored.watermark == original.watermark
        assert len(restored.drain()) == 0  # drain pointer restored too
        for buffer in (original, restored):
            buffer.extend(x[25:], y[25:], codes[25:], t[25:])
            buffer.flush()
        for column in ("x", "y", "codes", "t"):
            np.testing.assert_array_equal(
                getattr(original.snapshot(), column),
                getattr(restored.snapshot(), column),
            )
        np.testing.assert_array_equal(original.drain().t, restored.drain().t)

"""Columnar event-store tests: EventArray vs the loop oracles in ``tests/oracles``."""

import numpy as np
import pytest

from repro.matching.events import EVENT_CODES, EventArray, concatenate
from repro.matching.mouse import HeatMap, MouseEvent, MouseEventType, MovementMap
from tests.oracles.matching import counts_by_code_loop, downscale_loop, heat_map_counts_loop


def _random_store(rng, n, screen=(120, 160)):
    rows, cols = screen
    return EventArray(
        rng.uniform(-20, cols + 20, size=n),  # includes off-screen positions
        rng.uniform(-20, rows + 20, size=n),
        rng.integers(0, 4, size=n),
        np.sort(rng.uniform(0, 50, size=n)),
    )


class TestEventArray:
    def test_sorts_stably_by_timestamp(self):
        store = EventArray([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0, 1, 2], [5.0, 1.0, 5.0])
        assert store.t.tolist() == [1.0, 5.0, 5.0]
        # Stable: the x=1 event (t=5, first in input) precedes the x=3 one.
        assert store.x.tolist() == [2.0, 1.0, 3.0]

    def test_rejects_negative_timestamps_and_bad_codes(self):
        with pytest.raises(ValueError):
            EventArray([0.0], [0.0], [0], [-1.0])
        with pytest.raises(ValueError):
            EventArray([0.0], [0.0], [7], [1.0])
        with pytest.raises(ValueError):
            EventArray([0.0, 1.0], [0.0], [0], [1.0])

    def test_empty_stream(self):
        store = EventArray.empty()
        assert len(store) == 0
        assert store.duration() == 0.0
        assert store.path_length() == 0.0
        assert store.positions().shape == (0, 2)
        assert store.counts_by_code().tolist() == [0, 0, 0, 0]
        assert store.heat_map_counts((10, 10), (4, 4)).sum() == 0.0

    def test_round_trip_through_objects(self):
        rng = np.random.default_rng(0)
        store = _random_store(rng, 25)
        rebuilt = EventArray.from_events(store.to_events())
        np.testing.assert_array_equal(rebuilt.x, store.x)
        np.testing.assert_array_equal(rebuilt.y, store.y)
        np.testing.assert_array_equal(rebuilt.codes, store.codes)
        np.testing.assert_array_equal(rebuilt.t, store.t)

    @pytest.mark.parametrize("n", [0, 1, 2, 37])
    @pytest.mark.parametrize("shape", [(1, 1), (8, 8), (24, 32), (5, 3)])
    def test_heat_map_bitwise_vs_loop(self, n, shape):
        rng = np.random.default_rng(n * 100 + shape[0])
        store = _random_store(rng, n)
        screen = (120, 160)
        for code in (None, 0, 3):
            fast = store.heat_map_counts(screen, shape, code=code)
            loop = heat_map_counts_loop(store, screen, shape, code=code)
            np.testing.assert_array_equal(fast, loop)

    def test_counts_bitwise_vs_loop(self):
        rng = np.random.default_rng(3)
        store = _random_store(rng, 50)
        np.testing.assert_array_equal(store.counts_by_code(), counts_by_code_loop(store))

    def test_time_slicing_matches_object_filtering(self):
        rng = np.random.default_rng(4)
        store = _random_store(rng, 30)
        events = store.to_events()
        until = store.slice_until(25.0)
        assert len(until) == sum(1 for e in events if e.timestamp <= 25.0)
        between = store.slice_between(10.0, 30.0)
        assert len(between) == sum(1 for e in events if 10.0 <= e.timestamp <= 30.0)
        # Start beyond end yields an empty slice, not an error.
        assert len(store.slice_between(30.0, 10.0)) == 0

    def test_concatenate_matches_merge_semantics(self):
        rng = np.random.default_rng(5)
        stores = [_random_store(rng, n) for n in (4, 0, 9)]
        merged = concatenate(stores)
        assert len(merged) == 13
        assert (np.diff(merged.t) >= 0).all()


class TestMovementMapColumnarView:
    def test_single_event_map(self):
        movement = MovementMap(
            [MouseEvent(x=10, y=20, event_type=MouseEventType.SCROLL, timestamp=1.5)]
        )
        assert len(movement) == 1
        assert movement.duration() == 0.0
        assert movement.count_by_type()[MouseEventType.SCROLL] == 1
        assert movement.heat_map(shape=(4, 4)).total == 1.0
        assert movement.events[0].event_type is MouseEventType.SCROLL

    def test_event_view_is_lazy_and_consistent(self, simple_movement):
        data = simple_movement.data
        events = simple_movement.events
        assert [e.x for e in events] == data.x.tolist()
        assert [EVENT_CODES[e.event_type.value] for e in events] == data.codes.tolist()

    def test_heat_map_and_counts_match_loop_oracles(self, simple_movement):
        fast_heat = simple_movement.heat_map(shape=(16, 16))
        fast_counts = simple_movement.count_by_type()
        data = simple_movement.data
        oracle_heat = heat_map_counts_loop(data, simple_movement.screen, (16, 16))
        oracle_counts = counts_by_code_loop(data)
        np.testing.assert_array_equal(fast_heat.counts, oracle_heat)
        assert fast_counts == {
            event_type: int(oracle_counts[EVENT_CODES[event_type.value]])
            for event_type in MouseEventType
        }

    def test_from_arrays_roundtrip(self):
        movement = MovementMap.from_arrays(
            [5.0, 1.0], [2.0, 3.0], [1, 0], [4.0, 2.0], screen=(100, 100)
        )
        assert [e.timestamp for e in movement.events] == [2.0, 4.0]
        assert movement.events[1].event_type is MouseEventType.LEFT_CLICK


class TestDownscaleVectorized:
    @pytest.mark.parametrize(
        "source,target",
        [
            ((24, 32), (8, 8)),       # divisible
            ((24, 32), (7, 5)),       # non-divisible
            ((10, 10), (3, 4)),       # non-divisible
            ((1, 1), (1, 1)),         # degenerate
            ((3, 3), (5, 7)),         # upscale: empty blocks stay zero
        ],
    )
    def test_bitwise_vs_loop(self, source, target):
        rng = np.random.default_rng(source[0] * 10 + target[0])
        counts = rng.integers(0, 9, size=source).astype(float)
        heat_map = HeatMap(counts)
        fast = heat_map.downscale(target)
        np.testing.assert_array_equal(fast.counts, downscale_loop(counts, target))

    def test_mass_preserved_on_downscale(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 5, size=(13, 17)).astype(float)
        pooled = HeatMap(counts).downscale((4, 6))
        assert pooled.total == HeatMap(counts).total

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            HeatMap(np.zeros((4, 4))).downscale((0, 2))


class TestEventArrayGrowth:
    """The append/extend ergonomics satellite: no MouseEvent round-trips."""

    def test_append_matches_from_events(self):
        rng = np.random.default_rng(3)
        store = _random_store(rng, 12)
        grown = store.append(5.0, 6.0, EVENT_CODES["left"], 100.0)
        events = store.to_events() + [
            MouseEvent(x=5.0, y=6.0, event_type=MouseEventType.LEFT_CLICK, timestamp=100.0)
        ]
        reference = EventArray.from_events(events)
        for column in ("x", "y", "codes", "t"):
            np.testing.assert_array_equal(getattr(grown, column), getattr(reference, column))

    def test_extend_merges_out_of_order_batches_stably(self):
        rng = np.random.default_rng(4)
        store = _random_store(rng, 20)
        x = rng.uniform(0, 160, 15)
        y = rng.uniform(0, 120, 15)
        codes = rng.integers(0, 4, 15)
        t = rng.uniform(0, 50, 15)  # interleaves with the existing events
        grown = store.extend(x, y, codes, t)
        reference = EventArray(
            np.concatenate([store.x, x]),
            np.concatenate([store.y, y]),
            np.concatenate([store.codes, codes]),
            np.concatenate([store.t, t]),
        )
        for column in ("x", "y", "codes", "t"):
            np.testing.assert_array_equal(getattr(grown, column), getattr(reference, column))

    def test_extend_empty_is_identity(self):
        rng = np.random.default_rng(5)
        store = _random_store(rng, 8)
        assert store.extend([], [], [], []) is store
        empty = EventArray.empty()
        grown = empty.extend(store.x, store.y, store.codes, store.t)
        np.testing.assert_array_equal(grown.t, store.t)

    def test_extend_validates_new_events(self):
        store = EventArray([1.0], [1.0], [0], [1.0])
        with pytest.raises(ValueError):
            store.extend([0.0], [0.0], [9], [2.0])
        with pytest.raises(ValueError):
            store.extend([0.0], [0.0], [0], [-2.0])

    def test_original_constructor_unchanged(self):
        """Growth is functional: the source store's columns never move."""
        store = EventArray([1.0, 2.0], [3.0, 4.0], [0, 1], [0.5, 1.5])
        before = store.t.copy()
        store.append(9.0, 9.0, 0, 0.75)
        np.testing.assert_array_equal(store.t, before)
        assert not store.t.flags.writeable

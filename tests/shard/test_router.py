"""Consistent-hash router: determinism, balance, and ≈1/N resize stability."""

import bisect

import numpy as np
import pytest

from repro.shard import DEFAULT_REPLICAS, ShardFleet, ShardRouter, synthetic_traces
from repro.shard.router import _point


def _universe(n=5000):
    return [f"session-{index:06d}" for index in range(n)]


class TestRouting:
    def test_routes_land_in_range(self):
        router = ShardRouter(4, seed=7)
        shards = {router.route(session_id) for session_id in _universe(500)}
        assert shards <= set(range(4))
        assert len(shards) == 4  # every shard owns something

    def test_routing_is_deterministic_across_instances(self):
        universe = _universe(1000)
        first = ShardRouter(4, seed=7).assignment(universe)
        second = ShardRouter(4, seed=7).assignment(universe)
        assert first == second

    def test_seed_changes_the_ring(self):
        universe = _universe(1000)
        a = ShardRouter(4, seed=0).assignment(universe)
        b = ShardRouter(4, seed=1).assignment(universe)
        assert any(a[key] != b[key] for key in universe)

    def test_load_is_roughly_balanced(self):
        router = ShardRouter(4, seed=3)
        counts = np.bincount(
            [router.route(session_id) for session_id in _universe(8000)], minlength=4
        )
        mean = counts.mean()
        assert counts.max() < 2.0 * mean
        assert counts.min() > 0.35 * mean

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_shard_counts(self, bad):
        with pytest.raises(ValueError):
            ShardRouter(bad)


class TestResizeStability:
    """The property that makes rebalancing affordable: ≈1/N remaps."""

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_adding_one_shard_remaps_about_one_nth(self, n_shards):
        universe = _universe()
        before = ShardRouter(n_shards, seed=11).assignment(universe)
        after = ShardRouter(n_shards, seed=11).resize(n_shards + 1).assignment(universe)
        moved = [key for key in universe if before[key] != after[key]]
        expected = 1.0 / (n_shards + 1)
        fraction = len(moved) / len(universe)
        assert 0.3 * expected < fraction < 2.0 * expected
        # Growth only moves sessions *onto* the new shard — nothing
        # shuffles between surviving shards.
        assert all(after[key] == n_shards for key in moved)

    def test_removing_one_shard_only_moves_its_sessions(self):
        universe = _universe()
        before = ShardRouter(5, seed=11).assignment(universe)
        after = ShardRouter(5, seed=11).resize(4).assignment(universe)
        for key in universe:
            if before[key] != after[key]:
                assert before[key] == 4  # only the removed shard's sessions
        orphaned = [key for key in universe if before[key] == 4]
        assert orphaned and all(after[key] != 4 for key in orphaned)


def _ring_owner(router, session_id):
    """The ring lookup ``route`` memoizes, computed from scratch."""
    position = _point(router.seed, f"session:{session_id}")
    index = bisect.bisect_right(router._points, position) % len(router._points)
    return router._owners[index]


class TestRouteMemo:
    """``route`` is memoized per router; a memoized answer is never stale."""

    def test_memoized_routes_equal_fresh_routers_across_resize(self):
        rng = np.random.default_rng(17)
        universe = [f"user-{value:x}" for value in rng.integers(0, 2**62, 1000)]
        router = ShardRouter(4, seed=5)
        for n_shards in (4, 5, 3):
            router = router.resize(n_shards)
            expected = [_ring_owner(router, key) for key in universe]
            for _ in range(2):  # the second pass answers from the memo
                assert [router.route(key) for key in universe] == expected
                assert [
                    ShardRouter(n_shards, seed=5).route(key) for key in universe
                ] == expected

    def test_rebalanced_fleet_places_every_session_on_its_route(self, shard_service):
        traces = synthetic_traces(30, seed=8, n_events=4, n_decisions=1)
        with ShardFleet(shard_service, 3, seed=4) as fleet:
            for trace in traces:
                fleet.open(trace.session_id, trace.shape, screen=trace.screen)
            for n_shards in (5, 2):
                fleet.rebalance(n_shards)
                for trace in traces:
                    shard = fleet.router.route(trace.session_id)
                    assert trace.session_id in fleet._workers[shard].manager


class TestSpec:
    def test_spec_round_trips(self):
        router = ShardRouter(3, seed=9, replicas=16)
        clone = ShardRouter.from_spec(router.spec())
        universe = _universe(500)
        assert router.assignment(universe) == clone.assignment(universe)

    def test_spec_defaults(self):
        spec = ShardRouter(2).spec()
        assert spec == {"n_shards": 2, "seed": 0, "replicas": DEFAULT_REPLICAS}

"""Consistent-hash session routing (:class:`ShardRouter`).

The sharded serving layer partitions session ids across N shard workers.
A naive ``hash(id) % N`` would remap almost every session when N
changes; a **consistent-hash ring** remaps only ≈ ``1/N`` of the
universe when one shard joins or leaves — the property that makes live
rebalancing (and shard-count elasticity) affordable, and the contract
``tests/shard/test_router.py`` pins down.

The ring is built from keyless blake2b points, so routing is a pure
function of ``(seed, n_shards, replicas, session_id)``: every process,
test and re-run agrees on the placement of every session with no shared
state — the same determinism idiom as :mod:`repro.runtime.faults`.
Because it is pure, each router memoizes its answers: a session id is
hashed once per router, not once per dispatch.  Resizing builds a new
router (with an empty memo), so a memoized route never goes stale.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

#: Default number of virtual nodes each shard contributes to the ring.
#: More replicas → smoother load spread; 64 keeps the worst shard within
#: a few percent of the mean for realistic shard counts.
DEFAULT_REPLICAS = 64


def _point(seed: int, label: str) -> int:
    """Deterministic 64-bit ring position for a label."""
    digest = hashlib.blake2b(f"{seed}|{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Deterministic consistent-hash mapping ``session_id -> shard``.

    Parameters
    ----------
    n_shards:
        Number of shards on the ring (>= 1).
    seed:
        Ring seed; routers built with the same ``(seed, n_shards,
        replicas)`` are identical everywhere.
    replicas:
        Virtual nodes per shard (load-smoothing knob).
    """

    def __init__(self, n_shards: int, *, seed: int = 0, replicas: int = DEFAULT_REPLICAS) -> None:
        if n_shards < 1:
            raise ValueError("a router needs at least one shard")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.n_shards = int(n_shards)
        self.seed = int(seed)
        self.replicas = int(replicas)
        points: list[tuple[int, int]] = []
        for shard in range(self.n_shards):
            for replica in range(self.replicas):
                points.append((_point(self.seed, f"shard:{shard}:{replica}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]
        self._routes: dict[str, int] = {}

    def route(self, session_id: str) -> int:
        """The shard owning ``session_id`` (pure; memoized per router)."""
        shard = self._routes.get(session_id)
        if shard is None:
            position = _point(self.seed, f"session:{session_id}")
            index = bisect.bisect_right(self._points, position)
            if index == len(self._points):
                index = 0  # wrap: the ring is circular
            shard = self._routes[session_id] = self._owners[index]
        return shard

    def assignment(self, session_ids: Iterable[str]) -> dict[str, int]:
        """Route a whole universe at once (``{session_id: shard}``)."""
        return {session_id: self.route(session_id) for session_id in session_ids}

    def resize(self, n_shards: int) -> "ShardRouter":
        """A router for a different shard count on the same seeded ring.

        Shards keep their ring points when the count changes, so only
        the sessions whose nearest point belongs to the added (or
        removed) shard move — ≈ ``1/n_shards`` of the universe.
        """
        return ShardRouter(n_shards, seed=self.seed, replicas=self.replicas)

    def spec(self) -> dict:
        """JSON-ready router configuration (checkpoint manifests)."""
        return {"n_shards": self.n_shards, "seed": self.seed, "replicas": self.replicas}

    @classmethod
    def from_spec(cls, spec: dict) -> "ShardRouter":
        """Rebuild a router from :meth:`spec` output."""
        return cls(
            int(spec["n_shards"]),
            seed=int(spec.get("seed", 0)),
            replicas=int(spec.get("replicas", DEFAULT_REPLICAS)),
        )

    def __repr__(self) -> str:
        return (
            f"ShardRouter(n_shards={self.n_shards}, seed={self.seed}, "
            f"replicas={self.replicas})"
        )

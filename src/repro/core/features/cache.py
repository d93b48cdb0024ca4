"""Cross-configuration feature-block cache.

The paper's studies repeatedly re-extract the same feature sets over the
same populations: the Table III ablation trains eleven configurations on one
train/test split, Table IV refits per characteristic, and Tables IIa/IIb
evaluate three MExI variants against the same test cohorts.  The offline
feature sets (``lrsm`` / ``beh`` / ``mou``) — and the neural sets, whenever
their training inputs are bitwise identical — depend only on the population
and the extractor configuration, so their blocks can be computed once and
shared.

:class:`FeatureBlockCache` stores :class:`~repro.core.features.base.FeatureBlock`
objects keyed by ``(set name, population fingerprint, extractor config
fingerprint)``.  Population fingerprints digest the full behavioural content
of each matcher (decision history and movement map), so truncated or
sub-sampled matchers never collide with their parents.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.features.base import FeatureBlock
from repro.matching.matcher import HumanMatcher


def matcher_fingerprint(matcher: HumanMatcher) -> str:
    """A content digest of one matcher's observable behaviour.

    Covers the identifier, the full decision history (pairs, confidences,
    timestamps, matrix shape) and the movement map (positions, types,
    timestamps, screen size): everything the five feature sets read.

    The digest is memoised on the matcher object: matchers are treated as
    immutable throughout the code base (truncation and sub-matcher
    generation return new objects), so the first computation is definitive.
    """
    cached = getattr(matcher, "_repro_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    digest.update(matcher.matcher_id.encode())
    history = matcher.history
    digest.update(np.asarray(history.shape, dtype=np.int64).tobytes())
    if len(history):
        digest.update(history.columns().tobytes())
    movement = matcher.movement
    digest.update(np.asarray(movement.screen, dtype=np.int64).tobytes())
    if len(movement):
        # Columnar fast path: identical bytes to the historical row-wise
        # [(x, y, code, t), ...] float64 layout, without materialising
        # MouseEvent objects.
        data = movement.data
        events = np.column_stack([data.x, data.y, data.codes.astype(np.float64), data.t])
        digest.update(np.ascontiguousarray(events).tobytes())
    fingerprint = digest.hexdigest()
    matcher._repro_fingerprint = fingerprint
    return fingerprint


# Event-type codes now live with the columnar store; re-exported here for
# backwards compatibility of the fingerprint contract.
from repro.matching.events import EVENT_CODES as _EVENT_CODES  # noqa: E402


def population_fingerprint(matchers: Sequence[HumanMatcher]) -> str:
    """An order-sensitive digest of a whole population."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(len(matchers)).encode())
    for matcher in matchers:
        digest.update(matcher_fingerprint(matcher).encode())
    return digest.hexdigest()


def array_fingerprint(array: np.ndarray | None) -> str:
    """A digest of an array (e.g. a label matrix a neural extractor trained on)."""
    if array is None:
        return "none"
    contiguous = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(contiguous.shape).encode())
    digest.update(contiguous.tobytes())
    return digest.hexdigest()


class FeatureBlockCache:
    """An LRU cache of feature blocks shared across experiment configurations.

    One cache instance is created per study (or per
    :func:`repro.experiments.runner.run` invocation) and threaded through
    pipelines and characterizers; every configuration that extracts the same
    feature set over the same population reuses the stored block.

    The cache also memoises fitted *neural extractor state* keyed by the
    exact training inputs (population, labels, hyper-parameters, seed):
    training is deterministic, so two configurations that would train the
    same network share one fit.

    The cache is safe to share across threads: lookups and insertions are
    guarded by a lock, and a lost insertion race keeps the first-stored
    object (both competitors computed bitwise-identical content, so either
    is correct).  Computation itself runs outside the lock.  For the ``process`` backend the cache is
    pickled into each worker (the lock is dropped and recreated), so it
    should be **pre-warmed** before fan-out — worker-side insertions do not
    propagate back to the parent.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._blocks: OrderedDict[tuple[str, str, str], FeatureBlock] = OrderedDict()
        self._fits: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.fit_hits = 0
        self.fit_misses = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Feature blocks
    # ------------------------------------------------------------------ #

    def get_or_compute(
        self,
        set_name: str,
        matchers: Sequence[HumanMatcher],
        config_fingerprint: str,
        compute: Callable[[], FeatureBlock],
        population_key: Optional[str] = None,
    ) -> FeatureBlock:
        """The cached block for (set, population, config), computing on miss.

        ``population_key`` is ``population_fingerprint(matchers)`` when the
        caller already holds it (one digest serves every set of a call).
        """
        if population_key is None:
            population_key = population_fingerprint(matchers)
        key = (set_name, population_key, config_fingerprint)
        with self._lock:
            cached = self._blocks.get(key)
            if cached is not None:
                self._blocks.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        block = compute()
        if block.n_matchers != len(matchers):
            raise ValueError(
                f"extractor for {set_name!r} returned {block.n_matchers} rows "
                f"for a population of {len(matchers)}"
            )
        with self._lock:
            raced = self._blocks.get(key)
            if raced is not None:
                return raced
            self._blocks[key] = block
            self._evict(self._blocks)
        return block

    # ------------------------------------------------------------------ #
    # Fitted neural-extractor state
    # ------------------------------------------------------------------ #

    def get_or_fit(self, fit_fingerprint: str, fit: Callable[[], object]) -> object:
        """Memoise a deterministic fit (e.g. a trained neural extractor)."""
        with self._lock:
            cached = self._fits.get(fit_fingerprint)
            if cached is not None:
                self._fits.move_to_end(fit_fingerprint)
                self.fit_hits += 1
                return cached
            self.fit_misses += 1
        state = fit()
        with self._lock:
            raced = self._fits.get(fit_fingerprint)
            if raced is not None:
                return raced
            self._fits[fit_fingerprint] = state
            self._evict(self._fits)
        return state

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #

    def _evict(self, store: OrderedDict) -> None:
        while len(store) > self.max_entries:
            store.popitem(last=False)

    def __len__(self) -> int:
        return len(self._blocks)

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._fits.clear()
            self.hits = self.misses = 0
            self.fit_hits = self.fit_misses = 0

    def stats(self) -> dict[str, int]:
        """Hit/miss counters (useful in benchmarks and logs)."""
        with self._lock:
            return {
                "entries": len(self._blocks),
                "hits": self.hits,
                "misses": self.misses,
                "fit_entries": len(self._fits),
                "fit_hits": self.fit_hits,
                "fit_misses": self.fit_misses,
            }

    def __repr__(self) -> str:
        return (
            f"FeatureBlockCache(entries={len(self._blocks)}, hits={self.hits}, "
            f"misses={self.misses})"
        )

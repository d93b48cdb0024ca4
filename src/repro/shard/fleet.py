"""The sharded serving fleet (:class:`ShardFleet`).

A fleet is N :class:`~repro.shard.worker.ShardWorker`\\ s behind one
:class:`~repro.shard.router.ShardRouter`: session ids are
consistent-hash partitioned, every dispatch goes through a bounded
per-shard write-behind queue with explicit backpressure (drained once
per delivery round, or when a read touches the shard, so reads always
see every accepted write), each shard checkpoints into
its own :class:`~repro.stream.CheckpointStore`, and a killed shard is
restored from its latest-good checkpoint and continues bitwise
identically.

Equivalence contract
--------------------
The defining property — enforced by ``tests/shard/test_shard_equivalence.py``
— is that a fleet replaying a workload is **indistinguishable (per-session
scores bitwise)** from a single :class:`~repro.stream.SessionManager`
replaying the same events in the same event-time order, for any shard
count, dispatch interleaving or rebalance.  Two design rules make
that hold by construction rather than through a protocol of its own:

* **Canonical batch order.**  Scoring batches are always assembled in
  sorted-session-id order (``SessionManager.recharacterize(order="id")``
  is the oracle) — an order invariant under placement, rebalancing and
  crash-restores, unlike LRU order.
* **One scoring path.**  Every shard holds the primary
  :class:`~repro.serve.CharacterizationService` (one model object), and
  a fleet-wide pass is one
  :meth:`~repro.serve.CharacterizationService.score_batch` call on the
  sorted batch — the oracle's exact code path, so chunking, the
  no-singleton rule and classify-once are the serving layer's own.

Failure surface
---------------
Two fault seams (:mod:`repro.runtime.faults`) cover the new moving
parts: ``shard.dispatch`` (transient enqueue failures, absorbed by a
bounded retry loop with exact counters) and ``shard.death`` (a worker
loses all in-memory state and is restored from its checkpoint store).
``tests/shard/test_shard_chaos.py`` drives both.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro import obs
from repro.io.bundle import decoding, read_json, write_file_atomic
from repro.matching.mouse import MovementMap
from repro.runtime import RuntimeSpec
from repro.runtime.faults import InjectedFault, ReproRuntimeWarning, active_injector
from repro.serve.service import BatchScores, CharacterizationService
from repro.shard.router import ShardRouter
from repro.shard.worker import DEFAULT_QUEUE_SLOTS, ShardDeath, ShardWorker
from repro.stream.checkpoint import CheckpointError, CheckpointStore
from repro.stream.quarantine import QuarantineLog
from repro.stream.session import MatcherSession

#: Name of the fleet-level manifest written next to the per-shard stores.
FLEET_MANIFEST_NAME = "fleet.json"

_DISPATCH_BATCHES = obs.MetricHandle(
    "counter",
    "repro_shard_dispatch_batches_total",
    "Dispatch batches offered to shard queues, by outcome.",
    labelnames=("outcome",),
)


class ShardDispatchError(RuntimeError):
    """A dispatch could not be enqueued within the retry budget."""


class ShardFleet:
    """Consistent-hash partitioned session serving across N shard workers.

    Parameters
    ----------
    service:
        The primary :class:`CharacterizationService`.  Every shard's
        session manager scores through it, so the fleet holds one model
        however many shards it has.
    n_shards:
        Number of shard workers.
    seed / replicas:
        :class:`ShardRouter` ring parameters.
    queue_slots:
        Per-shard dispatch-queue capacity, in batches; a full queue
        rejects the batch with exact counters (explicit backpressure,
        never a silent drop).  Queues are write-behind, so a queue
        smaller than one delivery round's dispatches to its shard makes
        the replay driver flush early, not lose work.
    reorder_window / screen / idle_timeout / quarantine:
        Forwarded to every shard's :class:`~repro.stream.SessionManager`.
        ``quarantine`` additionally accepts ``True`` — give every shard
        its **own** fresh :class:`~repro.stream.QuarantineLog` (exact
        per-shard counters, aggregated by :meth:`stats`); a single
        shared log is still accepted and is counted once, not per
        shard.
    checkpoint_root:
        Directory for crash-recovery state: one
        :class:`~repro.stream.CheckpointStore` per shard
        (``shard-00/``, ``shard-01/``, …) plus a ``fleet.json``
        manifest.  ``None`` disables checkpointing (a killed shard then
        restarts cold).
    keep:
        Per-shard checkpoint retention depth.
    auto_restore:
        Restore a dead shard from its latest-good checkpoint on the next
        operation that reaches it (default).  With ``False`` a dead
        shard raises :class:`~repro.shard.worker.ShardDeadError` until
        :meth:`restore_shard` is called.
    max_dispatch_retries:
        Bounded retry budget for transient ``shard.dispatch`` faults.
    extract_runtime:
        Default :class:`~repro.runtime.TaskRunner` spec of the fleet's
        scoring batches (any backend; ``None`` uses the primary
        service's runtime).
    """

    def __init__(
        self,
        service: CharacterizationService,
        n_shards: int,
        *,
        seed: int = 0,
        replicas: Optional[int] = None,
        queue_slots: int = DEFAULT_QUEUE_SLOTS,
        reorder_window: float = 0.0,
        screen: tuple[int, int] = MovementMap.DEFAULT_SCREEN,
        idle_timeout: Optional[float] = None,
        quarantine: Union[QuarantineLog, bool, None] = None,
        checkpoint_root=None,
        keep: int = 3,
        auto_restore: bool = True,
        max_dispatch_retries: int = 3,
        extract_runtime: RuntimeSpec = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("a fleet needs at least one shard")
        if max_dispatch_retries < 0:
            raise ValueError("max_dispatch_retries must be non-negative")
        router_kwargs = {} if replicas is None else {"replicas": replicas}
        self.router = ShardRouter(n_shards, seed=seed, **router_kwargs)
        self._primary = service
        self.queue_slots = int(queue_slots)
        self.keep = int(keep)
        self.auto_restore = bool(auto_restore)
        self.max_dispatch_retries = int(max_dispatch_retries)
        self.checkpoint_root = Path(checkpoint_root) if checkpoint_root else None
        self._per_shard_quarantine = quarantine is True
        self._manager_kwargs = {
            "reorder_window": float(reorder_window),
            "screen": screen,
            "idle_timeout": idle_timeout,
            "quarantine": None if quarantine is True else quarantine,
        }
        self.extract_runtime = extract_runtime
        self._workers: list[ShardWorker] = [
            self._make_worker(shard) for shard in range(n_shards)
        ]
        self._clock = 0
        self._dispatch_seq = 0
        self.dispatch_faults = 0
        self.recharacterize_seconds: list[float] = []
        # Per-fleet latency histogram: stats() derives its percentile
        # estimates from this (fixed log-spaced buckets), while the raw
        # seconds list above stays for benchmark post-processing.  The
        # instance is standalone — a fleet's stats must not absorb other
        # fleets' observations through the process-global registry.
        self._latency = obs.Histogram(
            "repro_shard_recharacterize_seconds",
            "Fleet recharacterization wall-clock per batch.",
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _make_worker(self, shard: int) -> ShardWorker:
        manager_kwargs = self._manager_kwargs
        if self._per_shard_quarantine:
            manager_kwargs = dict(manager_kwargs, quarantine=QuarantineLog())
        worker = ShardWorker(
            shard,
            self._primary,
            queue_slots=self.queue_slots,
            manager_kwargs=manager_kwargs,
        )
        if self.checkpoint_root is not None:
            worker.store = CheckpointStore(
                self.checkpoint_root / worker.name, keep=self.keep
            )
        return worker

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def n_shards(self) -> int:
        return len(self._workers)

    @property
    def clock(self) -> int:
        """The fleet's logical clock (replay step counter; fault-seam key)."""
        return self._clock

    def tick(self) -> int:
        """Advance the logical clock (the replay driver calls this per step)."""
        self._clock += 1
        return self._clock

    def close(self) -> None:
        """Release the fleet's resources.  Idempotent.

        The fleet owns nothing beyond its shards' in-memory state, so
        this does nothing; it stays so the fleet can be used as a
        context manager like the other serving resources.
        """

    def __enter__(self) -> "ShardFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return sum(
            len(worker.manager) for worker in self._workers if worker.alive
        )

    def __contains__(self, session_id: str) -> bool:
        # Membership must reflect what a restore would bring back —
        # otherwise a caller could "re-open" a session the next
        # operation's auto-restore resurrects from the checkpoint.
        worker = self._read(self.router.route(session_id))
        return worker.alive and session_id in worker.manager

    def session_ids(self) -> list[str]:
        """Every live session id, sorted (canonical fleet order)."""
        self._drain_unpaused()
        ids: list[str] = []
        for worker in self._workers:
            if worker.alive:
                ids.extend(worker.manager.session_ids())
        return sorted(ids)

    def session(self, session_id: str) -> MatcherSession:
        """Look up a session on its owning shard.

        Raises
        ------
        KeyError
            If the session does not exist (evicted, or lost with a
            killed shard and not yet re-created by the replay layer).
        """
        worker = self._read(self.router.route(session_id))
        return worker.require_manager().session(session_id)

    def open(
        self,
        session_id: str,
        shape: tuple[int, int],
        screen: Optional[tuple[int, int]] = None,
    ) -> MatcherSession:
        """Create a session on its ring-assigned shard (control op, not queued)."""
        worker = self._ensure_alive(self.router.route(session_id))
        return worker.require_manager().open(session_id, shape, screen=screen)

    def evict_idle(self, now: float) -> list[str]:
        """Evict event-time-idle sessions on every shard (after a flush).

        Idleness is a pure function of each session's own event time, so
        fleet-wide eviction is deterministic and placement-independent —
        the same sessions fall out of a single-manager oracle.
        """
        self.flush()
        victims: list[str] = []
        for worker in self._workers:
            if worker.alive:
                victims.extend(worker.manager.evict_idle(now))
        return victims

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _ensure_alive(self, shard: int) -> ShardWorker:
        worker = self._workers[shard]
        if not worker.alive and self.auto_restore:
            worker.restore()
        return worker

    def restore_shard(self, shard: int) -> ShardWorker:
        """Explicitly restore a dead shard from its checkpoint store."""
        worker = self._workers[shard]
        if not worker.alive:
            worker.restore()
        return worker

    def _drain(self, worker: ShardWorker) -> None:
        try:
            worker.drain(self._clock)
        except ShardDeath:
            worker.kill()
            if self.auto_restore:
                worker.restore()

    def _read(self, shard: int) -> ShardWorker:
        """A shard about to be read: restored if dead, drained unless paused.

        Draining before every read keeps write-behind invisible to
        callers — a read sees every write the fleet accepted.
        """
        worker = self._ensure_alive(shard)
        if worker.queue_depth and not worker.paused:
            self._drain(worker)
        return worker

    def _drain_unpaused(self) -> None:
        for worker in self._workers:
            if worker.alive and worker.queue_depth and not worker.paused:
                self._drain(worker)

    def _dispatch(self, kind: str, session_id: str, payload, n_events: int) -> bool:
        shard = self.router.route(session_id)
        worker = self._ensure_alive(shard)
        worker.require_manager()
        sequence = self._dispatch_seq
        self._dispatch_seq += 1
        injector = active_injector()
        attempt = 0
        while injector is not None and injector.fires(
            "shard.dispatch", key=f"{shard}@{sequence}", attempt=attempt
        ):
            self.dispatch_faults += 1
            attempt += 1
            if attempt > self.max_dispatch_retries:
                raise ShardDispatchError(
                    f"dispatch {sequence} to shard {shard} failed "
                    f"{attempt} times (fault seam 'shard.dispatch')"
                )
        accepted = worker.submit((kind, session_id, payload), n_events)
        if obs.obs_enabled():
            _DISPATCH_BATCHES().inc(outcome="accepted" if accepted else "rejected")
        return accepted

    def ingest_events(self, session_id: str, x, y, codes, t) -> bool:
        """Route a column batch of mouse events to its shard's queue.

        Returns ``True`` when the batch was accepted (enqueued exactly
        once; applied at the shard's next drain) and ``False`` when
        backpressure rejected it whole — the caller retries later,
        typically after :meth:`flush`; nothing was partially applied.
        """
        t = np.asarray(t)
        return self._dispatch("events", session_id, (x, y, codes, t), int(t.size))

    def add_decision(
        self, session_id: str, row: int, col: int, confidence: float, timestamp: float
    ) -> bool:
        """Route one matching decision to its shard (backpressure-aware)."""
        return self._dispatch(
            "decision", session_id, (row, col, confidence, timestamp), 1
        )

    def flush(self) -> int:
        """Drain every shard's queue (paused shards included); events applied.

        The replay driver calls this once per delivery round, so each
        shard pays one drain per window rather than one per dispatch.
        """
        applied = 0
        for worker in self._workers:
            if not worker.alive:
                self._ensure_alive(worker.shard_id)
            if worker.alive and worker.queue_depth:
                before = worker.counters["processed_events"]
                self._drain(worker)
                applied += worker.counters["processed_events"] - before
        return applied

    def pause(self, shard: int) -> None:
        """Stop read-triggered drains for a shard (its queue fills; dispatch rejects)."""
        self._workers[shard].paused = True

    def resume(self, shard: int) -> None:
        """Resume a paused shard and drain its backlog."""
        worker = self._workers[shard]
        worker.paused = False
        if worker.alive and worker.queue_depth:
            self._drain(worker)

    # ------------------------------------------------------------------ #
    # Characterization
    # ------------------------------------------------------------------ #

    def recharacterize(
        self,
        *,
        runtime: RuntimeSpec = None,
        force: bool = False,
    ) -> BatchScores:
        """Score every dirty session fleet-wide in one canonical batch.

        Queues are flushed, the dirty (or, with ``force``, all
        scoreable) sessions of every shard are gathered in
        sorted-session-id order and scored by **one**
        :meth:`~repro.serve.CharacterizationService.score_batch` call on
        the primary service — bitwise identical to
        ``SessionManager.recharacterize(order="id")`` on a single
        manager holding the same sessions (see the module docstring).

        Args
        ----
        runtime:
            Per-call scoring runtime override (defaults to the fleet's
            ``extract_runtime``, then to the primary service's runtime).
        force:
            Score all scoreable sessions, dirty or not (the full-batch
            final-scores comparison the chaos suite uses).
        """
        self.flush()
        pending: list[MatcherSession] = []
        for worker in self._workers:
            pending.extend(
                self._ensure_alive(worker.shard_id).pending_sessions(force=force)
            )
        if not pending:
            # An empty pass records no latency: stats() counts scored passes.
            return self._primary.score_batch([])
        pending.sort(key=lambda session: session.session_id)
        started = time.perf_counter()
        with obs.trace_span("shard.recharacterize", sessions=len(pending), force=force):
            scores = self._primary.score_batch(
                [session.matcher() for session in pending],
                runtime=runtime if runtime is not None else self.extract_runtime,
            )
        for row, session in enumerate(pending):
            session.last_labels = scores.labels[row].copy()
            session.last_probabilities = scores.probabilities[row].copy()
            session.n_characterizations += 1
            session.dirty = False
        elapsed = time.perf_counter() - started
        self.recharacterize_seconds.append(elapsed)
        self._latency.observe(elapsed)
        if obs.obs_enabled():
            obs.histogram(
                "repro_shard_recharacterize_seconds",
                "Fleet recharacterization wall-clock per batch.",
            ).observe(elapsed)
        return scores

    def scores(self) -> dict[str, dict[str, np.ndarray]]:
        """Latest characterization per scored session, sorted by id."""
        self._drain_unpaused()
        merged: dict[str, dict[str, np.ndarray]] = {}
        for worker in self._workers:
            if worker.alive:
                merged.update(worker.manager.scores())
        return dict(sorted(merged.items()))

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #

    def checkpoint_shard(self, shard: int):
        """Checkpoint one shard into its store (flushing its queue first)."""
        worker = self._ensure_alive(shard)
        if worker.queue_depth:
            self._drain(worker)
        return worker.checkpoint()

    def checkpoint_all(self) -> int:
        """Checkpoint every shard; a failed shard keeps its previous bundle.

        A torn write (crash or injected ``checkpoint.write`` fault)
        leaves that shard's store exactly as it was — the atomic publish
        protocol guarantees the ``latest-good`` pointer never names a
        torn bundle — and the fleet keeps serving: the failure is
        warned, counted, and the remaining shards still checkpoint.

        Returns the number of shards successfully checkpointed.
        """
        if self.checkpoint_root is None:
            raise ValueError("fleet has no checkpoint_root configured")
        self.flush()
        saved = 0
        for worker in self._workers:
            try:
                worker.checkpoint()
                saved += 1
            except (CheckpointError, InjectedFault) as error:
                worker.counters["checkpoint_failures"] += 1
                warnings.warn(
                    ReproRuntimeWarning(
                        f"checkpoint of {worker.name} failed ({error}); its "
                        "previous latest-good checkpoint is retained"
                    ),
                    stacklevel=2,
                )
        self._write_manifest()
        return saved

    def _write_manifest(self) -> None:
        manifest = {
            "format": "repro-shard-fleet",
            "router": self.router.spec(),
            "clock": self._clock,
            "queue_slots": self.queue_slots,
            "keep": self.keep,
        }
        write_file_atomic(
            self.checkpoint_root / FLEET_MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )

    @classmethod
    def restore(
        cls,
        checkpoint_root,
        service: CharacterizationService,
        **kwargs,
    ) -> "ShardFleet":
        """Rebuild a whole fleet from its checkpoint root.

        Router configuration and the logical clock come from
        ``fleet.json``; each shard restores from its own store's
        latest-good checkpoint (cold when it has none).
        """
        root = Path(checkpoint_root)
        path = root / FLEET_MANIFEST_NAME
        manifest = read_json(path, what="fleet manifest", error=CheckpointError)
        with decoding(f"fleet manifest {path}", CheckpointError):
            router = ShardRouter.from_spec(manifest["router"])
            clock = int(manifest.get("clock", 0))
            fleet = cls(
                service,
                router.n_shards,
                seed=router.seed,
                replicas=router.replicas,
                queue_slots=int(manifest.get("queue_slots", DEFAULT_QUEUE_SLOTS)),
                keep=int(manifest.get("keep", 3)),
                checkpoint_root=root,
                **kwargs,
            )
        fleet._clock = clock
        for worker in fleet._workers:
            if worker.store is not None and worker.store.checkpoints():
                worker.manager = worker.store.restore(
                    worker.service,
                    quarantine=worker.quarantine,
                )
        return fleet

    # ------------------------------------------------------------------ #
    # Rebalancing
    # ------------------------------------------------------------------ #

    def rebalance(self, n_shards: int) -> list[str]:
        """Resize the fleet, moving only the ring-remapped sessions.

        Queues are flushed, workers for added shards are created (on
        the same primary service), every session whose ring owner
        changed is released by its old shard and adopted — state intact
        — by its new one, and removed shards are dropped once empty.
        Consistent hashing keeps the moved fraction ≈ ``1/n_shards``.

        Returns the moved session ids (sorted).
        """
        if n_shards < 1:
            raise ValueError("a fleet needs at least one shard")
        if n_shards == self.n_shards:
            return []
        self.flush()
        for shard in range(self.n_shards):
            self._ensure_alive(shard)
        new_router = self.router.resize(n_shards)
        while len(self._workers) < n_shards:
            self._workers.append(self._make_worker(len(self._workers)))
        moved: list[str] = []
        for worker in self._workers:
            if worker.manager is None:
                continue
            for session_id in list(worker.manager.session_ids()):
                target = new_router.route(session_id)
                if target != worker.shard_id:
                    session = worker.manager.release(session_id)
                    self._workers[target].require_manager().adopt(session)
                    moved.append(session_id)
        if n_shards < len(self._workers):
            for worker in self._workers[n_shards:]:
                assert worker.manager is None or len(worker.manager) == 0
            self._workers = self._workers[:n_shards]
        self.router = new_router
        return sorted(moved)

    # ------------------------------------------------------------------ #
    # Ops surface
    # ------------------------------------------------------------------ #

    def healthz(self) -> dict:
        """Liveness summary: ``ok`` when every shard is alive and unpaused."""
        shards = [
            {
                "shard": worker.shard_id,
                "alive": worker.alive,
                "paused": worker.paused,
                "queue_depth": worker.queue_depth,
            }
            for worker in self._workers
        ]
        healthy = all(entry["alive"] and not entry["paused"] for entry in shards)
        return {"status": "ok" if healthy else "degraded", "shards": shards}

    def stats(self) -> dict:
        """Fleet-wide counters plus per-shard detail (the ops surface payload)."""
        self._drain_unpaused()
        latency = None
        if self._latency.count():
            # Bucket-interpolated quantile estimates from the fleet's own
            # fixed-bound histogram (same estimator /metrics consumers
            # apply to the exposed buckets); the max is tracked exactly.
            latency = {
                "count": self._latency.count(),
                "p50_ms": float(self._latency.quantile(0.5) * 1e3),
                "p99_ms": float(self._latency.quantile(0.99) * 1e3),
                "max_ms": float(self._latency.max_value() * 1e3),
            }
        per_shard = [worker.stats() for worker in self._workers]
        totals = {
            key: sum(worker.counters[key] for worker in self._workers)
            for key in self._workers[0].counters
        }
        totals["quarantined"] = self.quarantine_counts()
        return {
            "n_shards": self.n_shards,
            "n_sessions": len(self),
            "clock": self._clock,
            "dispatch_faults": self.dispatch_faults,
            "recharacterize_latency": latency,
            "totals": totals,
            "shards": per_shard,
        }

    def quarantine_counts(self) -> Optional[dict]:
        """Fleet-wide quarantine counters, exact across every shard.

        Distinct :class:`~repro.stream.QuarantineLog` objects are summed;
        a single log shared by every shard (the legacy configuration) is
        counted **once**, so the totals stay exact either way.  ``None``
        when no shard carries a log.
        """
        logs: dict[int, QuarantineLog] = {}
        for worker in self._workers:
            log = worker.quarantine
            if log is not None:
                logs.setdefault(id(log), log)
        if not logs:
            return None
        by_reason: dict[str, int] = {}
        for log in logs.values():
            for reason, count in log.by_reason.items():
                by_reason[reason] = by_reason.get(reason, 0) + count
        return {
            "total": sum(log.total for log in logs.values()),
            "retained": sum(len(log) for log in logs.values()),
            "by_reason": by_reason,
        }

    def __repr__(self) -> str:
        return (
            f"ShardFleet(shards={self.n_shards}, sessions={len(self)}, "
            f"clock={self._clock})"
        )

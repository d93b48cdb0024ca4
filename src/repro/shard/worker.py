"""One shard of the serving fleet (:class:`ShardWorker`).

A shard worker owns a private :class:`~repro.stream.SessionManager`
over the fleet's primary :class:`~repro.serve.CharacterizationService`
(every shard shares that one service — one model, one warm feature
cache; see :mod:`repro.shard.fleet`), plus the two things that make it
a *fleet member* rather than a bare manager:

* a **bounded write-behind dispatch queue** with explicit backpressure
  — a full queue rejects the batch (``submit`` returns ``False``) and
  the fleet counts the rejection exactly; accepted batches wait in the
  queue until the fleet drains it (once per delivery round, or when a
  read touches the shard) and are then applied exactly once, in FIFO
  order, which ``tests/shard/test_backpressure.py`` pins to
  :class:`~repro.stream.quarantine.QuarantineLog`-grade accounting;
* a **crash surface** — the ``shard.death`` fault seam fires at the top
  of a queue drain and discards the worker's entire in-memory state
  (sessions *and* queued batches), exactly what a killed worker process
  loses.  The fleet restores the worker from its latest-good
  :class:`~repro.stream.CheckpointStore` checkpoint and the replay layer
  re-delivers the lost tail (cursor-based at-least-once, deduplicated
  by session state — :mod:`repro.shard.replay`).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from repro import obs
from repro.runtime.faults import ReproRuntimeWarning, active_injector
from repro.serve.service import CharacterizationService
from repro.stream.checkpoint import CheckpointError, CheckpointStore
from repro.stream.session import MatcherSession, SessionManager

#: Default dispatch-queue capacity, in batches.
DEFAULT_QUEUE_SLOTS = 256

_DISPATCH_SECONDS = obs.MetricHandle(
    "histogram",
    "repro_shard_dispatch_seconds",
    "Write-behind dispatch latency per drained queue (oldest batch to applied).",
)
_DRAIN_SECONDS = obs.MetricHandle(
    "histogram",
    "repro_shard_drain_seconds",
    "Queue-drain wall-clock per shard drain call.",
)
_QUEUE_DEPTH = obs.MetricHandle(
    "gauge",
    "repro_shard_queue_depth",
    "Batches each shard's dispatch queue held when it was last drained.",
    labelnames=("shard",),
)


class ShardDeath(RuntimeError):
    """A shard worker crashed (injected via the ``shard.death`` seam).

    Raised out of :meth:`ShardWorker.drain` *before* any state is
    discarded; the fleet catches it, calls :meth:`ShardWorker.kill` and
    (when a checkpoint store is attached) restores the worker.
    """

    def __init__(self, shard_id: int, clock: int) -> None:
        super().__init__(
            f"shard {shard_id} died at clock {clock} (fault seam 'shard.death')"
        )
        self.shard_id = shard_id
        self.clock = clock


class ShardDeadError(RuntimeError):
    """An operation reached a dead shard that cannot be auto-restored."""


class ShardWorker:
    """One shard: private session manager, bounded queue, crash/restore.

    Parameters
    ----------
    shard_id:
        Position of this worker in the fleet (also its fault-seam key
        prefix and checkpoint subdirectory index).
    service:
        The scoring service this shard's session managers use (the
        fleet passes its primary service to every shard).
    queue_slots:
        Dispatch-queue capacity in batches; a full queue rejects.
    manager_kwargs:
        Forwarded to every :class:`SessionManager` this worker creates
        (fresh and restored alike): ``reorder_window``, ``screen``,
        ``idle_timeout``, ``quarantine``.
    """

    def __init__(
        self,
        shard_id: int,
        service: CharacterizationService,
        *,
        queue_slots: int = DEFAULT_QUEUE_SLOTS,
        manager_kwargs: Optional[dict] = None,
    ) -> None:
        if queue_slots < 1:
            raise ValueError("queue_slots must be at least 1")
        self.shard_id = int(shard_id)
        self.service = service
        self.queue_slots = int(queue_slots)
        self._manager_kwargs = dict(manager_kwargs or {})
        self.manager: Optional[SessionManager] = SessionManager(
            service, **self._manager_kwargs
        )
        self.store: Optional[CheckpointStore] = None
        self.paused = False
        self._queue: deque = deque()
        self._queued_events = 0
        self._oldest_enqueued = 0.0  # perf_counter of the head batch's submit
        self.counters = {
            "accepted_batches": 0,
            "accepted_events": 0,
            "rejected_batches": 0,
            "rejected_events": 0,
            "processed_batches": 0,
            "processed_events": 0,
            "lost_batches": 0,
            "lost_events": 0,
            "deaths": 0,
            "restores": 0,
            "checkpoints": 0,
            "checkpoint_failures": 0,
        }
        self.drain_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Liveness
    # ------------------------------------------------------------------ #

    @property
    def alive(self) -> bool:
        return self.manager is not None

    @property
    def quarantine(self):
        """This shard's :class:`~repro.stream.QuarantineLog` (or ``None``).

        The log lives in the manager kwargs, not the manager, so its
        exact counters survive a :meth:`kill`/:meth:`restore` cycle —
        quarantined rows were *diverted*, not lost with the crash.
        """
        return self._manager_kwargs.get("quarantine")

    @property
    def name(self) -> str:
        return f"shard-{self.shard_id:02d}"

    def require_manager(self) -> SessionManager:
        if self.manager is None:
            raise ShardDeadError(
                f"{self.name} is dead and has no checkpoint store to restore from"
            )
        return self.manager

    # ------------------------------------------------------------------ #
    # Queue / backpressure
    # ------------------------------------------------------------------ #

    @property
    def queue_depth(self) -> int:
        """Batches currently waiting in the dispatch queue."""
        return len(self._queue)

    def submit(self, item: tuple, n_events: int) -> bool:
        """Enqueue one dispatch batch; ``False`` (and exact counters) when full.

        A rejected batch is dropped *whole* — no partial application, so
        accepted-event accounting stays exact: every accepted event is
        applied exactly once by :meth:`drain`.  Submitting applies
        nothing (write-behind): the fleet drains the queue once per
        delivery round or when a read touches the shard.
        """
        if len(self._queue) >= self.queue_slots:
            self.counters["rejected_batches"] += 1
            self.counters["rejected_events"] += n_events
            return False
        if not self._queue:
            self._oldest_enqueued = time.perf_counter()
        self._queue.append((item, n_events))
        self._queued_events += n_events
        self.counters["accepted_batches"] += 1
        self.counters["accepted_events"] += n_events
        return True

    def drain(self, clock: int = 0) -> int:
        """Apply every queued batch in FIFO order; return events applied.

        The ``shard.death`` seam is consulted once, at the top, keyed
        ``"{shard_id}@{clock}"`` — so a plan can kill a specific shard
        at a specific fleet clock tick (``keys=``) or scatter
        deterministic deaths over the whole run (``p=``).  When it
        fires, :class:`ShardDeath` propagates *before* any queued batch
        is applied; the fleet then discards this worker's state.

        Telemetry is paid once per drained queue, not per batch: one
        ``shard.dispatch`` span, one observation each of the dispatch
        latency (oldest queued batch to applied) and the drain time.
        """
        injector = active_injector()
        if injector is not None and injector.fires(
            "shard.death", key=f"{self.shard_id}@{clock}"
        ):
            raise ShardDeath(self.shard_id, clock)
        manager = self.require_manager()
        depth, applied = len(self._queue), 0
        started = time.perf_counter()
        with obs.trace_span(
            "shard.dispatch", shard=self.shard_id, batches=depth, events=self._queued_events
        ):
            while self._queue:
                (kind, session_id, payload), n_events = self._queue.popleft()
                self._queued_events -= n_events
                if kind == "events":
                    x, y, codes, t = payload
                    manager.ingest_events(session_id, x, y, codes, t)
                elif kind == "decision":
                    row, col, confidence, timestamp = payload
                    manager.add_decision(session_id, row, col, confidence, timestamp)
                else:  # pragma: no cover - defensive: the fleet builds the items
                    raise ValueError(f"unknown dispatch item kind {kind!r}")
                self.counters["processed_batches"] += 1
                self.counters["processed_events"] += n_events
                applied += n_events
        finished = time.perf_counter()
        self.drain_seconds += finished - started
        if depth and obs.obs_enabled():
            _DRAIN_SECONDS().observe(finished - started)
            _DISPATCH_SECONDS().observe(finished - self._oldest_enqueued)
            _QUEUE_DEPTH().set(depth, shard=self.shard_id)
        return applied

    # ------------------------------------------------------------------ #
    # Crash / restore / checkpoint
    # ------------------------------------------------------------------ #

    def kill(self) -> tuple[int, int]:
        """Discard all in-memory state (sessions + queue); return what was lost.

        Models a worker-process crash: everything not yet checkpointed
        is gone.  Returns ``(lost_batches, lost_events)`` — the queued
        batches that died with the worker (exact, for the fleet's
        accounting; events already *applied* to sessions are not
        re-counted here, they are recovered from the checkpoint or
        re-delivered by the replay layer).
        """
        lost_batches = len(self._queue)
        lost_events = self._queued_events
        self._queue.clear()
        self._queued_events = 0
        self.manager = None
        self.counters["deaths"] += 1
        self.counters["lost_batches"] += lost_batches
        self.counters["lost_events"] += lost_events
        if obs.obs_enabled():
            obs.counter("repro_shard_deaths_total", "Shard worker deaths.").inc()
        return lost_batches, lost_events

    def checkpoint(self) -> Optional[object]:
        """Save the current session state into the attached store."""
        if self.store is None:
            return None
        bundle = self.store.save(self.require_manager())
        self.counters["checkpoints"] += 1
        return bundle

    def restore(self) -> SessionManager:
        """Bring a dead worker back from its latest-good checkpoint.

        Falls back through the store's retained checkpoints (torn or
        corrupt bundles are skipped with a warning — see
        :meth:`~repro.stream.CheckpointStore.restore`); a worker whose
        store is empty (or absent) restarts **cold** with a warning —
        sessions opened since the beginning are re-created by the
        at-least-once replay layer.
        """
        import warnings

        if self.store is not None and self.store.checkpoints():
            try:
                self.manager = self.store.restore(
                    self.service,
                    quarantine=self._manager_kwargs.get("quarantine"),
                )
                self.counters["restores"] += 1
                if obs.obs_enabled():
                    obs.counter("repro_shard_restores_total", "Shard restores.").inc()
                return self.manager
            except CheckpointError as error:
                warnings.warn(
                    ReproRuntimeWarning(
                        f"{self.name} has no restorable checkpoint ({error}); "
                        "restarting cold"
                    ),
                    stacklevel=2,
                )
        else:
            warnings.warn(
                ReproRuntimeWarning(
                    f"{self.name} died with no checkpoint to restore; restarting cold"
                ),
                stacklevel=2,
            )
        self.manager = SessionManager(self.service, **self._manager_kwargs)
        self.counters["restores"] += 1
        if obs.obs_enabled():
            obs.counter("repro_shard_restores_total", "Shard restores.").inc()
        return self.manager

    # ------------------------------------------------------------------ #
    # Scoring support
    # ------------------------------------------------------------------ #

    def pending_sessions(self, *, force: bool = False) -> list[MatcherSession]:
        """Scoreable sessions awaiting (re-)characterization on this shard."""
        manager = self.require_manager()
        if force:
            return [
                manager.session(session_id)
                for session_id in manager.session_ids()
                if manager.session(session_id).scoreable
            ]
        return manager.dirty_sessions()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Per-shard counters for the fleet ops surface."""
        manager_stats = self.manager.stats() if self.manager is not None else None
        log = self.quarantine
        return {
            "shard": self.shard_id,
            "alive": self.alive,
            "paused": self.paused,
            "queue_depth": self.queue_depth,
            "queue_slots": self.queue_slots,
            "drain_seconds": round(self.drain_seconds, 6),
            **self.counters,
            "quarantined": log.counts() if log is not None else None,
            "manager": manager_stats,
        }

    def __repr__(self) -> str:
        return (
            f"ShardWorker(shard={self.shard_id}, alive={self.alive}, "
            f"sessions={len(self.manager) if self.manager is not None else 0}, "
            f"queue={self.queue_depth}/{self.queue_slots})"
        )

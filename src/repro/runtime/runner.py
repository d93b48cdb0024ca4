"""Deterministic parallel execution substrate (``TaskRunner`` / ``parallel_map``).

Every study in this code base is dominated by loops of independent, pure
tasks: the Table III ablation runs eleven configurations back-to-back,
the identification experiment runs its folds one after another, the
bootstrap test draws thousands of resamples and batch scoring extracts
features chunk by chunk.
:class:`TaskRunner` fans such loops out across cores while keeping the
results **bitwise identical** to the serial loop, which stays the oracle.

The determinism contract rests on two rules:

* **Pre-drawn randomness** — callers draw *all* RNG material (fold
  shuffles, resample index matrices)
  up front from the existing seed streams, in the exact order the serial
  loop would consume them, and hand each task its own material.  Workers
  never touch a shared generator.
* **Ordered collection** — :meth:`TaskRunner.map` returns results in task
  order regardless of completion order, so downstream reductions
  (stacking fold scores, assembling table rows) run in
  the serial order.

Backends
--------
``serial``
    Runs tasks in the calling thread; the reference implementation.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`; tasks and their
    arguments must be picklable (module-level functions, no lambdas).

Each process-pool dispatch carries ``max(1, n_tasks // (workers * 4))``
tasks: four waves per worker, amortizing inter-process transfer while
keeping slack for load balancing.

The backend is chosen per call (pass a :class:`TaskRunner` or a spec string
such as ``"process:4"``) or globally through the ``REPRO_RUNTIME``
environment variable.  Inside a worker, :func:`resolve_runner` falls back to
``serial`` so a globally configured parallel backend never fans out
recursively (no nested pools, no core oversubscription).
"""

from __future__ import annotations

import argparse
import itertools
import os
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

from repro import obs
from repro.obs.tracing import current_context, trace_span, use_parent
from repro.runtime.faults import (
    DegradedRuntimeWarning,
    FaultPlan,
    InjectedFault,
    _hash_unit,
    active_injector,
)

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable selecting the default backend, e.g. ``process:4``.
RUNTIME_ENV_VAR = "REPRO_RUNTIME"

#: Set in process-pool workers so nested resolution degrades to serial.
_WORKER_ENV_VAR = "_REPRO_RUNTIME_IN_WORKER"

BACKENDS: tuple[str, ...] = ("serial", "process")

#: Per-call shared context, delivered once to each process-pool worker via
#: the pool initializer instead of once per task (see ``TaskRunner.map``).
_process_context = None


def _mark_process_worker() -> None:
    os.environ[_WORKER_ENV_VAR] = "1"
    # A forked worker inherits the parent's metrics registry, and its
    # envelopes ship cumulative snapshots back (see _ObsCall): starting
    # from an empty registry keeps the parent's counts from coming back
    # with them.
    obs.set_default_registry(obs.MetricsRegistry())


def _mark_process_worker_with_context(context) -> None:
    global _process_context
    _mark_process_worker()
    _process_context = context


class _ContextCall:
    """Calls ``function(task, context)`` with the worker's delivered context.

    Pickling this wrapper ships only the bare function; the (potentially
    large) context object travels once per worker through the pool
    initializer, not once per task.
    """

    def __init__(self, function: Callable) -> None:
        self.function = function

    def __call__(self, task):
        return self.function(task, _process_context)


# --------------------------------------------------------------------- #
# Telemetry plumbing (active only when ``obs_enabled()``)
# --------------------------------------------------------------------- #

#: Per-worker-process monotone envelope sequence: the parent keeps the
#: highest-sequence envelope per worker pid, whose cumulative registry
#: snapshot covers everything that worker recorded.
_obs_envelope_seq = itertools.count(1)


class _ObsEnvelope:
    """One process-pool task result plus the worker's telemetry state."""

    __slots__ = ("result", "pid", "seq", "snapshot", "spans")

    def __init__(self, result, pid: int, seq: int, snapshot, spans) -> None:
        self.result = result
        self.pid = pid
        self.seq = seq
        self.snapshot = snapshot
        self.spans = spans


class _ObsCall:
    """Wraps a process-pool task call to ship worker telemetry back.

    The worker times the task into its own (process-local) metrics
    registry, runs it under the dispatching span's carrier so task-opened
    spans keep their parentage, and returns an :class:`_ObsEnvelope`
    carrying the result untouched plus a cumulative registry snapshot and
    the spans closed during the task.  The parent unwraps envelopes with
    :func:`_obs_merge_envelopes`, so callers see exactly the results the
    unwrapped call would have produced.
    """

    def __init__(self, call: Callable, parent) -> None:
        self.call = call
        self.parent = parent

    def __call__(self, task):
        if not obs.obs_enabled():
            return _ObsEnvelope(self.call(task), os.getpid(), 0, None, ())
        worker_tracer = obs.tracer()
        mark = worker_tracer.mark()
        started = time.perf_counter()
        with use_parent(self.parent):
            result = self.call(task)
        elapsed = time.perf_counter() - started
        obs.histogram(
            "repro_runtime_task_seconds",
            "Per-task wall-clock, by backend.",
            labelnames=("backend",),
        ).observe(elapsed, backend="process")
        obs.counter(
            "repro_runtime_tasks_total",
            "Tasks executed, by backend.",
            labelnames=("backend",),
        ).inc(backend="process")
        spans = tuple(record.to_dict() for record in worker_tracer.since(mark))
        return _ObsEnvelope(
            result,
            os.getpid(),
            next(_obs_envelope_seq),
            obs.default_registry().snapshot(),
            spans,
        )


def _obs_merge_envelopes(envelopes: Sequence[_ObsEnvelope]) -> list:
    """Unwrap envelopes; fold worker telemetry into this process's plane.

    Every envelope carries its worker's *cumulative* snapshot, so only the
    highest-sequence envelope per worker pid is merged (merging each one
    would multiply counts).  Spans are mark-sliced per task and therefore
    disjoint — all of them are absorbed.
    """
    latest: dict[int, tuple[int, dict]] = {}
    spans: list[dict] = []
    results = []
    for envelope in envelopes:
        results.append(envelope.result)
        spans.extend(envelope.spans)
        if envelope.snapshot is not None:
            previous = latest.get(envelope.pid)
            if previous is None or envelope.seq > previous[0]:
                latest[envelope.pid] = (envelope.seq, envelope.snapshot)
    registry = obs.default_registry()
    for _, snapshot in latest.values():
        registry.merge_snapshot(snapshot)
    if spans:
        obs.tracer().absorb(spans)
    return results


def _obs_task_metrics(backend: str, durations) -> None:
    """Batch-record per-task timings for an in-process map."""
    import numpy as np

    array = np.asarray(durations, dtype=np.float64)
    obs.histogram(
        "repro_runtime_task_seconds",
        "Per-task wall-clock, by backend.",
        labelnames=("backend",),
    ).observe_many(array, backend=backend)
    obs.counter(
        "repro_runtime_tasks_total",
        "Tasks executed, by backend.",
        labelnames=("backend",),
    ).inc(array.size, backend=backend)


def _obs_count_retry(stage: str) -> None:
    if obs.obs_enabled():
        obs.counter(
            "repro_runtime_retries_total",
            "Supervised task retries, by stage.",
            labelnames=("stage",),
        ).inc(stage=stage)


@dataclass(frozen=True)
class Supervision:
    """Retry / backoff / degradation policy for :meth:`TaskRunner.map`.

    With a policy attached, task failures are retried with exponential
    backoff (jitter drawn from pre-seeded randomness, so delays are as
    deterministic as everything else), broken process pools are rebuilt,
    and a ``process`` stage that cannot finish the work within its budget
    hands the remainder to ``serial`` (the chain is ``process`` →
    ``serial``) with a :class:`~repro.runtime.faults.DegradedRuntimeWarning`.
    Results stay **bitwise identical** to the unsupervised fault-free
    run whenever the work completes: retries re-run pure tasks, and the
    collection order is task order on every backend.

    Attributes
    ----------
    max_retries:
        Failed attempts allowed per task *per backend stage* beyond the
        first try.  On the last stage exhaustion re-raises the task's
        last error: its own exception on ``serial``, or on ``process``
        (last only with ``degrade=False``) its own exception or the
        :class:`~concurrent.futures.process.BrokenProcessPool` of the
        pool it failed with.
    timeout:
        Stall timeout (seconds) for the ``process`` stage: if no task
        completes for this long, the in-flight tasks are marked failed
        and the pool is rebuilt.  ``None`` disables; ignored by the
        serial stage (the calling thread cannot be interrupted).
    backoff_base / backoff_factor / backoff_max:
        Retry delay ``min(backoff_max, backoff_base * backoff_factor**(attempt-1))``
        scaled by a deterministic jitter in [0.5, 1.5).  A zero base
        disables sleeping (the tests' choice).
    jitter_seed:
        Seed of the jitter stream.
    max_pool_rebuilds:
        Broken-pool events tolerated before the ``process`` stage
        degrades to ``serial`` (or, with ``degrade=False``, re-raises the
        pool's error).
    degrade:
        Whether stages degrade at all; with ``False`` the configured
        backend's exhaustion re-raises immediately.
    """

    max_retries: int = 2
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter_seed: int = 0
    max_pool_rebuilds: int = 2
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ValueError("backoff parameters must be non-negative (factor >= 1)")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")

    def backoff(self, key: object, attempt: int) -> float:
        """Deterministic retry delay (seconds) before ``attempt`` of ``key``."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(attempt - 1, 0),
        )
        return delay * (0.5 + _hash_unit(self.jitter_seed, "backoff", f"{key}|{attempt}"))


def _check_task_seams(injector, index: int, attempt: int) -> None:
    """Consult the task seams through the injector (recording each firing).

    The serial stage goes through :meth:`FaultInjector.fires` rather
    than the bare plan so ``chaos.fired()`` observability counts what
    actually fired in this process; process-pool workers carry the plan
    instead (their injector state is per-process and invisible here).
    """
    if injector is None:
        return
    if injector.fires("worker.death", key=index, attempt=attempt) or injector.fires(
        "task.execute", key=index, attempt=attempt
    ):
        raise InjectedFault(
            f"injected task failure (task {index}, attempt {attempt})"
        )


class _SupervisedCall:
    """Per-task wrapper of the supervised process stage: fault seams, then the task.

    Picklable; carries the (tiny) fault plan into process-pool workers,
    where the ``worker.death`` seam is a real ``os._exit`` crash.  (The
    serial stage raises :class:`~repro.runtime.faults.InjectedFault`
    for it instead, through :func:`_check_task_seams` — killing the
    caller's interpreter is not an absorbable fault.)
    """

    def __init__(
        self,
        function: Callable,
        index: int,
        attempt: int,
        plan: Optional[FaultPlan],
        with_context: bool,
    ) -> None:
        self.function = function
        self.index = index
        self.attempt = attempt
        self.plan = plan
        self.with_context = with_context

    def __call__(self, task):
        plan = self.plan
        if plan is not None:
            if plan.should_fail("worker.death", key=self.index, attempt=self.attempt):
                os._exit(3)  # pragma: no cover - dies before reporting
            if plan.should_fail("task.execute", key=self.index, attempt=self.attempt):
                raise InjectedFault(
                    f"injected task failure (task {self.index}, attempt {self.attempt})"
                )
        if self.with_context:
            return self.function(task, _process_context)
        return self.function(task)


def _supervised_process_initializer(
    context, plan: Optional[FaultPlan], generation: int
) -> None:
    """Pool initializer of the supervised process stage.

    The ``worker.start`` seam is keyed on the pool *generation* so plans
    can express "the first pool comes up broken, its rebuild is
    healthy"; an initializer failure marks the whole pool broken.
    """
    if plan is not None and plan.should_fail("worker.start", key=generation, attempt=0):
        raise InjectedFault(f"injected worker startup failure (pool generation {generation})")
    _mark_process_worker_with_context(context)


class _TaskStallError(TimeoutError):
    """A supervised process round saw no completion within the stall timeout."""


def in_worker() -> bool:
    """Whether the calling context is a TaskRunner process-pool worker.

    Returns
    -------
    bool
        ``True`` inside a ``process``-backend worker; :func:`resolve_runner`
        uses this to degrade nested resolutions to ``serial`` (one loop
        level fans out at a time).
    """
    return os.environ.get(_WORKER_ENV_VAR) == "1"


def available_workers() -> int:
    """Usable core count (scheduler affinity aware, never below 1).

    Returns
    -------
    int
        The number of cores the scheduler allows this process to use —
        the default ``max_workers`` of a :class:`TaskRunner`.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return max(1, os.cpu_count() or 1)


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"unknown runtime backend {backend!r}; expected one of {BACKENDS}")


class TaskRunner:
    """Maps a function over tasks on a ``serial`` or ``process`` backend.

    Runners are cheap, stateless handles: executors are created per
    :meth:`map` call and torn down before it returns, so a runner can be
    stored as an estimator parameter, deep-copied by :func:`repro.ml.base.clone`
    and shared freely between callers.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        supervision: Optional[Supervision] = None,
    ) -> None:
        _check_backend(backend)
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.backend = backend
        self.max_workers = max_workers if max_workers is not None else available_workers()
        self.supervision = supervision

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_spec(cls, spec: str) -> "TaskRunner":
        """Parse a ``backend[:workers]`` spec string, e.g. ``"process:4"``.

        Args
        ----
        spec:
            ``"serial"`` or ``"process"``, optionally suffixed with ``:N``
            to cap the worker count.

        Raises
        ------
        ValueError
            If the backend name is unknown or the worker count is not a
            positive integer.
        """
        backend, colon, count = spec.strip().lower().partition(":")
        _check_backend(backend)
        workers: Optional[int] = None
        if colon:
            try:
                workers = int(count)
            except ValueError:
                raise ValueError(f"invalid worker count in runtime spec {spec!r}")
        return cls(backend=backend, max_workers=workers)

    def __deepcopy__(self, memo: dict) -> "TaskRunner":
        return TaskRunner(
            backend=self.backend,
            max_workers=self.max_workers,
            supervision=self.supervision,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def map(
        self,
        function: Callable[..., _R],
        tasks: Iterable[_T],
        context=None,
        *,
        supervision: Optional[Supervision] = None,
    ) -> list[_R]:
        """Apply ``function`` to every task, returning results in task order.

        Args
        ----
        function:
            The task function.  Must be picklable (module-level) for the
            ``process`` backend; called as ``function(task)`` or, when a
            context is given, ``function(task, context)``.
        tasks:
            The task payloads, each carrying its own pre-drawn randomness
            (see the module docstring's determinism contract).
        context:
            State shared by every task (a feature cache, the training
            matrices).  The serial backend passes the object through
            directly; the process backend delivers it **once per worker**
            via the pool initializer, so large shared payloads are not
            re-pickled for every task.
        supervision:
            Retry / backoff / degradation policy (see
            :class:`Supervision`); defaults to the runner's own.  With
            ``None`` (the default everywhere) the unsupervised fast
            path below runs byte-for-byte as before.

        Returns
        -------
        list
            One result per task, in task order regardless of completion
            order — bitwise identical across backends and worker counts.
        """
        items = list(tasks)
        if not items:
            return []
        supervision = supervision if supervision is not None else self.supervision
        if supervision is not None:
            return self._map_supervised(function, items, context, supervision)
        call = function if context is None else (lambda item: function(item, context))
        workers = min(self.max_workers, len(items))
        telemetry = obs.obs_enabled()
        if self.backend == "serial" or workers == 1 or len(items) == 1:
            if not telemetry:
                return [call(item) for item in items]
            return self._map_serial_instrumented(call, items)
        chunksize = max(1, len(items) // (workers * 4))
        if context is None:
            initializer, initargs, task_call = _mark_process_worker, (), function
        else:
            initializer = _mark_process_worker_with_context
            initargs = (context,)
            task_call = _ContextCall(function)
        with trace_span(
            "runtime.map", backend="process", tasks=len(items), workers=workers
        ):
            if telemetry:
                task_call = _ObsCall(task_call, current_context())
            with ProcessPoolExecutor(
                max_workers=workers, initializer=initializer, initargs=initargs
            ) as executor:
                raw = list(executor.map(task_call, items, chunksize=chunksize))
            if telemetry:
                return _obs_merge_envelopes(raw)
            return raw

    def _map_serial_instrumented(self, call: Callable, items: list) -> list:
        """Serial fast path with per-task timing and a ``runtime.map`` span."""
        durations = [0.0] * len(items)
        results = []
        with trace_span("runtime.map", backend="serial", tasks=len(items)):
            for index, item in enumerate(items):
                started = time.perf_counter()
                results.append(call(item))
                durations[index] = time.perf_counter() - started
        _obs_task_metrics("serial", durations)
        return results

    # ------------------------------------------------------------------ #
    # Supervised execution
    # ------------------------------------------------------------------ #

    def _map_supervised(
        self,
        function: Callable,
        items: list,
        context,
        supervision: Supervision,
    ) -> list:
        """The retrying, degradable engine behind ``map(supervision=...)``.

        Execution walks a backend *chain* (``process`` → ``serial``, or
        ``serial`` alone): each stage gets a fresh per-task retry budget,
        and tasks a stage cannot finish are handed to the next stage with a
        :class:`DegradedRuntimeWarning`.  The final stage re-raises on
        exhaustion.  Completed results are bitwise identical to the
        unsupervised run — retries re-run pure tasks and results are
        collected in task order.
        """
        injector = active_injector()
        plan = injector.plan if injector is not None else None
        results: list = [None] * len(items)
        pending = list(range(len(items)))
        backend = self.backend
        workers = min(self.max_workers, len(items))
        if backend != "serial" and (workers == 1 or len(items) == 1):
            backend = "serial"
        chain: tuple[str, ...] = (
            ("process", "serial") if backend == "process" else ("serial",)
        )
        if not supervision.degrade:
            chain = chain[:1]
        for position, stage in enumerate(chain):
            final_stage = position == len(chain) - 1
            if stage == "process":
                pending, error = self._stage_process(
                    function, items, context, supervision, plan, results,
                    pending, final_stage,
                )
            else:
                pending, error = self._stage_serial(
                    function, items, context, supervision, injector,
                    results, pending, final_stage,
                )
            if not pending:
                return results
            if obs.obs_enabled():
                obs.counter(
                    "repro_runtime_degradations_total",
                    "Supervised backend degradations, by stage transition.",
                    labelnames=("from_stage", "to_stage"),
                ).inc(from_stage=stage, to_stage=chain[position + 1])
            warnings.warn(
                DegradedRuntimeWarning(
                    f"supervised {stage!r} execution could not finish "
                    f"{len(pending)} of {len(items)} task(s) within its retry "
                    f"budget (last error: {error!r}); degrading to "
                    f"{chain[position + 1]!r}"
                ),
                stacklevel=3,
            )
        raise AssertionError("unreachable: the serial stage completes or raises")

    def _stage_serial(
        self, function, items, context, supervision, injector, results, pending,
        final_stage,
    ) -> tuple[list[int], Optional[BaseException]]:
        """Serial stage: in-thread retry loop (the last resort re-raises)."""
        call = function if context is None else (lambda item: function(item, context))
        remaining: list[int] = []
        last_error: Optional[BaseException] = None
        for index in pending:
            attempt = 0
            while True:
                try:
                    _check_task_seams(injector, index, attempt)
                    results[index] = call(items[index])
                    break
                except Exception as error:
                    last_error = error
                    attempt += 1
                    _obs_count_retry("serial")
                    if attempt > supervision.max_retries:
                        if final_stage:
                            raise
                        remaining.append(index)
                        break
                    delay = supervision.backoff(index, attempt)
                    if delay:
                        time.sleep(delay)
        return remaining, last_error

    def _stage_process(
        self,
        function,
        items,
        context,
        supervision,
        plan,
        results,
        pending,
        final_stage,
    ) -> tuple[list[int], Optional[BaseException]]:
        """Process stage: per-task futures, stall detection, pool rebuilds.

        Tasks are submitted one per future so failures are attributable
        to a task index.  A broken pool (worker death, failed
        initializer) or a stall (no completion within
        ``supervision.timeout``) fails the in-flight tasks and rebuilds the
        pool — until the rebuild budget is spent and the remainder
        degrades.
        """
        attempts = {index: 0 for index in pending}
        errors: dict[int, BaseException] = {}
        exhausted: list[int] = []
        last_error: Optional[BaseException] = None
        current = list(pending)
        pool_failures = 0
        generation = 0
        telemetry = obs.obs_enabled()
        obs_parent = current_context() if telemetry else None
        # Highest-sequence envelope snapshot per (pool generation, worker
        # pid); merged once at stage end (see _obs_merge_envelopes).
        obs_snapshots: dict[tuple[int, int], tuple[int, dict]] = {}
        obs_spans: list[dict] = []

        def _flush_worker_telemetry() -> None:
            if not obs_snapshots and not obs_spans:
                return
            registry = obs.default_registry()
            for _, snapshot in obs_snapshots.values():
                registry.merge_snapshot(snapshot)
            if obs_spans:
                obs.tracer().absorb(obs_spans)
            obs_snapshots.clear()
            obs_spans.clear()

        while current:
            workers = min(self.max_workers, len(current))
            pool_broken = False
            failed: list[int] = []
            executor = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_supervised_process_initializer,
                initargs=(context, plan, generation),
            )
            try:
                futures = {}
                for position, index in enumerate(current):
                    wrapper = _SupervisedCall(
                        function, index, attempts[index], plan,
                        with_context=context is not None,
                    )
                    submitted = _ObsCall(wrapper, obs_parent) if telemetry else wrapper
                    try:
                        futures[executor.submit(submitted, items[index])] = index
                    except BrokenExecutor as error:
                        # A worker died (e.g. a failed initializer) before
                        # the submit loop finished: the pool is broken, and
                        # every task not yet submitted fails with it.
                        pool_broken = True
                        last_error = error
                        for unsubmitted in current[position:]:
                            errors[unsubmitted] = error
                            failed.append(unsubmitted)
                        break
                unfinished = set(futures)
                while unfinished:
                    completed, unfinished = wait(
                        unfinished,
                        timeout=supervision.timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    if not completed:
                        # Stall: nothing finished within the timeout.
                        pool_broken = True
                        for future in unfinished:
                            index = futures[future]
                            errors[index] = _TaskStallError(
                                f"task {index} made no progress within "
                                f"{supervision.timeout}s; rebuilding the pool"
                            )
                            last_error = errors[index]
                            failed.append(index)
                        break
                    for future in completed:
                        index = futures[future]
                        try:
                            value = future.result()
                            if isinstance(value, _ObsEnvelope):
                                obs_spans.extend(value.spans)
                                if value.snapshot is not None:
                                    key = (generation, value.pid)
                                    previous = obs_snapshots.get(key)
                                    if previous is None or value.seq > previous[0]:
                                        obs_snapshots[key] = (value.seq, value.snapshot)
                                value = value.result
                            results[index] = value
                        except BrokenExecutor as error:
                            pool_broken = True
                            errors[index] = error
                            last_error = error
                            failed.append(index)
                        except Exception as error:
                            errors[index] = error
                            last_error = error
                            failed.append(index)
            finally:
                executor.shutdown(wait=not pool_broken, cancel_futures=True)
            retry: list[int] = []
            for index in failed:
                attempts[index] += 1
                _obs_count_retry("process")
                if attempts[index] > supervision.max_retries:
                    if final_stage:
                        raise errors[index]
                    exhausted.append(index)
                else:
                    retry.append(index)
            if pool_broken:
                pool_failures += 1
                if pool_failures > supervision.max_pool_rebuilds:
                    leftovers = sorted(exhausted + retry)
                    if final_stage and leftovers:
                        raise last_error if last_error is not None else RuntimeError(
                            "supervised process pool failed repeatedly"
                        )
                    _flush_worker_telemetry()
                    return leftovers, last_error
            if retry:
                delay = max(supervision.backoff(index, attempts[index]) for index in retry)
                if delay:
                    time.sleep(delay)
            current = sorted(retry)
            generation += 1
        _flush_worker_telemetry()
        return sorted(exhausted), last_error

    def __repr__(self) -> str:
        return f"TaskRunner(backend={self.backend!r}, max_workers={self.max_workers})"


#: What callers may pass wherever a runtime is accepted.
RuntimeSpec = Union[None, str, TaskRunner]

_SERIAL = TaskRunner("serial")


def resolve_runner(spec: RuntimeSpec = None) -> TaskRunner:
    """Resolve a per-call runtime selection to a concrete :class:`TaskRunner`.

    Resolution order: an explicit :class:`TaskRunner` or spec string wins;
    otherwise the ``REPRO_RUNTIME`` environment variable is consulted; the
    default is ``serial``.

    Inside a TaskRunner worker **every** resolution — explicit specs and
    runner instances included — degrades to serial: one loop level fans out
    at a time.  Without this, a parallel loop nested in the workers of a
    parallel outer loop (a bootstrap test inside a fold task, say) would
    spawn a pool per worker and oversubscribe the machine.
    Results are unaffected either way — every backend is bitwise identical.
    """
    if in_worker():
        return _SERIAL
    if isinstance(spec, TaskRunner):
        return spec
    if spec is not None:
        return TaskRunner.from_spec(spec)
    env = os.environ.get(RUNTIME_ENV_VAR)
    if env:
        return TaskRunner.from_spec(env)
    return _SERIAL


def runtime_argument(spec: str) -> str:
    """``argparse`` ``type=`` of the ``--runtime`` flags: a valid spec, unchanged.

    Raises
    ------
    argparse.ArgumentTypeError
        Carrying :meth:`TaskRunner.from_spec`'s message, so an unknown
        backend or a bad worker count is a usage error (exit code 2)
        that names the valid backends.
    """
    try:
        TaskRunner.from_spec(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return spec


def parallel_map(
    function: Callable[..., _R],
    tasks: Sequence[_T],
    runtime: RuntimeSpec = None,
    context=None,
    *,
    supervision: Optional[Supervision] = None,
) -> list[_R]:
    """Map ``function`` over ``tasks`` on the resolved runtime, in task order.

    The one-call form of :meth:`TaskRunner.map`: ``runtime`` is resolved
    through :func:`resolve_runner` (explicit spec > ``REPRO_RUNTIME`` >
    ``serial``; always ``serial`` inside a worker) and ``context`` and
    ``supervision`` are forwarded unchanged.

    Returns
    -------
    list
        One result per task, in task order — bitwise identical across
        backends and worker counts.
    """
    return resolve_runner(runtime).map(
        function,
        tasks,
        context=context,
        supervision=supervision,
    )

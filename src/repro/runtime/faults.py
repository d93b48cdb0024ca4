"""Deterministic fault injection (:class:`FaultPlan` / :class:`FaultInjector`).

Every other layer of this repo carries a bitwise determinism contract;
this module extends that contract to *failure*.  A :class:`FaultPlan` is
a seeded, declarative description of which **seams** fail, for which
keys, and how many times — and the decision function is pure
(``blake2b(seed, seam, key)``), so the same plan injects the same faults
in every process, on every backend, in every re-run.  That purity is
what makes the repo's chaos invariant testable at all: under any plan
the supervisor can absorb, a completed run must be **bitwise identical**
to the fault-free run (``tests/runtime/test_faults.py``,
``tests/stream/test_quarantine.py``).

Injection seams
---------------
Each seam names one place the production code consults the active
injector.  What "firing" means is decided by the consuming seam, so the
framework stays a pure decision engine:

``task.execute``
    The supervised :meth:`~repro.runtime.TaskRunner.map` task wrapper
    raises :class:`InjectedFault` before running the task.
``worker.start``
    A process-pool worker's initializer raises during startup (keyed on
    the pool *generation*, so "the first pool is broken, its rebuild is
    healthy" is expressible) — the pool comes up broken.
``worker.death``
    The worker wrapper calls ``os._exit`` mid-task: a hard crash the
    executor reports as ``BrokenProcessPool``.
``stream.ingest``
    :meth:`~repro.stream.SessionManager.ingest_events` appends
    deterministically corrupted events (malformed / duplicate / stale)
    to the arriving batch — exercising the quarantine path without
    touching one byte of the legitimate events.
``checkpoint.write`` / ``checkpoint.read``
    :func:`~repro.stream.checkpoint.save_checkpoint` raises mid-write
    (before the atomic rename, so no torn bundle becomes visible) and
    :func:`~repro.stream.checkpoint.load_checkpoint` reports the bundle
    as unreadable, driving :class:`~repro.stream.checkpoint.CheckpointStore`
    fallback.
``shard.dispatch``
    :meth:`~repro.shard.ShardFleet` dispatch raises before a batch is
    enqueued on its shard's queue (keyed ``"{shard}@{sequence}"``); the
    front-end retries with an explicit attempt counter, so ``times=``
    within the retry budget is an absorbed transient and anything beyond
    it surfaces as a dispatch error with exact counters.
``shard.death``
    A :class:`~repro.shard.ShardWorker` dies at the top of a queue
    drain (keyed ``"{shard}@{clock}"``): its entire in-memory state —
    session manager and queued batches — is discarded, exactly what a
    killed worker process loses, and the fleet restores it from its
    latest-good checkpoint.
``adapter.read``
    A :mod:`repro.adapters` trace format fails to read its source file
    (keyed on the file name, with an explicit attempt counter): the
    transient-I/O shape.  The adapter retries with bounded exponential
    backoff, so ``times=`` within the retry budget is an absorbed
    transient and anything beyond it surfaces as an
    :class:`~repro.adapters.AdapterError`.

Selecting a plan
----------------
Tests install plans programmatically (:func:`injected` context manager,
:func:`install_plan`); CI chaos jobs select one through the
``REPRO_FAULTS`` environment variable, which process-pool workers
inherit.  The grammar is ``rule;rule;...`` where each rule is
``seam[:p=PROB][:keys=K1,K2][:times=N]`` and a standalone ``seed=N``
token seeds the plan::

    REPRO_FAULTS="worker.death:p=0.3:times=1;task.execute:p=0.2;seed=7"

An explicit :func:`install_plan` always wins over the environment.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

#: Environment variable selecting the process-wide fault plan.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: The injection seams production code consults (see the module docstring).
SEAMS: tuple[str, ...] = (
    "task.execute",
    "worker.start",
    "worker.death",
    "stream.ingest",
    "checkpoint.write",
    "checkpoint.read",
    "shard.dispatch",
    "shard.death",
    "adapter.read",
)


class FaultPlanError(ValueError):
    """Raised when a fault-plan spec cannot be parsed or validated."""


class InjectedFault(RuntimeError):
    """The error raised by seams whose injected failure is an exception.

    Supervised execution treats it like any other task failure (retry,
    backoff, degradation) — production code never catches it specially,
    which is the point: absorbing an injected fault exercises exactly
    the machinery that absorbs a real one.
    """


class ReproRuntimeWarning(UserWarning):
    """Category for operational warnings emitted by the repro runtime.

    Operators and tests filter on this category (e.g.
    ``warnings.simplefilter("error", ReproRuntimeWarning)``) instead of
    string-matching stderr: resume flags being ignored, unverifiable
    model bindings, checkpoint fallback, and runtime degradation all
    warn with this category or a subclass.
    """


class DegradedRuntimeWarning(ReproRuntimeWarning):
    """A component fell back to a slower-but-safe mode after failures.

    Emitted when supervised execution degrades ``process`` → ``serial``
    after repeated pool failures.  Results are bitwise
    unaffected — only the execution mode changed.
    """


def _hash_unit(seed: int, seam: str, key: object) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, seam, key)."""
    digest = hashlib.blake2b(
        f"{seed}|{seam}|{key}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


def _hash_seed(seed: int, seam: str, key: object, attempt: int) -> int:
    """Deterministic 64-bit RNG seed from (seed, seam, key, attempt)."""
    digest = hashlib.blake2b(
        f"{seed}|{seam}|{key}|{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class FaultRule:
    """One declarative failure rule of a :class:`FaultPlan`.

    Attributes
    ----------
    seam:
        The injection seam this rule arms (one of :data:`SEAMS`).
    probability:
        Deterministic match probability over keys: the rule matches key
        ``k`` when ``blake2b(seed, seam, k)`` maps below it.  ``1.0``
        (default) matches every key.
    keys:
        Explicit key allow-list (stringified comparison); when set it
        replaces the probability draw entirely.
    times:
        How many attempts fail per matching key: the rule fires while
        ``attempt < times``, so an absorbable plan is one whose
        ``times`` stays within the supervisor's retry budget.
    """

    seam: str
    probability: float = 1.0
    keys: Optional[frozenset[str]] = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.seam not in SEAMS:
            raise FaultPlanError(
                f"unknown fault seam {self.seam!r}; expected one of {SEAMS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError("fault probability must lie in [0, 1]")
        if self.times < 1:
            raise FaultPlanError("a fault rule must fire at least once (times >= 1)")

    def matches(self, seed: int, key: object) -> bool:
        """Whether this rule targets ``key`` (pure; no internal state)."""
        if self.keys is not None:
            return str(key) in self.keys
        if self.probability >= 1.0:
            return True
        return _hash_unit(seed, self.seam, key) < self.probability

    def spec(self) -> str:
        """The rule in ``REPRO_FAULTS`` grammar."""
        parts = [self.seam]
        if self.keys is not None:
            parts.append("keys=" + ",".join(sorted(self.keys)))
        elif self.probability < 1.0:
            parts.append(f"p={self.probability:g}")
        if self.times != 1:
            parts.append(f"times={self.times}")
        return ":".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s; the unit of chaos testing.

    The decision function :meth:`should_fail` is **pure**: it depends
    only on ``(seed, seam, key, attempt)``, never on call order, thread
    timing or which process asks — so workers, supervisors and tests all
    agree on exactly which faults a plan injects.  Plans are tiny,
    picklable and hashable; the supervised task wrapper ships one to
    every pool worker.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def should_fail(self, seam: str, key: object = None, attempt: int = 0) -> bool:
        """Whether the seam fails for ``key`` on this ``attempt`` (pure)."""
        for rule in self.rules:
            if rule.seam == seam and attempt < rule.times and rule.matches(self.seed, key):
                return True
        return False

    def arms(self, seam: str) -> bool:
        """Whether any rule targets the seam (cheap pre-check for hot paths)."""
        return any(rule.seam == seam for rule in self.rules)

    def spec(self) -> str:
        """The plan in ``REPRO_FAULTS`` grammar (round-trips via :meth:`from_spec`)."""
        parts = [rule.spec() for rule in self.rules]
        if self.seed:
            parts.append(f"seed={self.seed}")
        return ";".join(parts)

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see the module docstring).

        Raises
        ------
        FaultPlanError
            On unknown seams, malformed fields, or out-of-range values.
        """
        rules: list[FaultRule] = []
        seed = 0
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if chunk.startswith("seed="):
                try:
                    seed = int(chunk[5:])
                except ValueError:
                    raise FaultPlanError(f"invalid plan seed in {chunk!r}")
                continue
            fields = chunk.split(":")
            seam = fields[0].strip()
            probability = 1.0
            keys: Optional[frozenset[str]] = None
            times = 1
            for piece in fields[1:]:
                name, _, value = piece.partition("=")
                name = name.strip()
                try:
                    if name == "p":
                        probability = float(value)
                    elif name == "keys":
                        keys = frozenset(
                            item.strip() for item in value.split(",") if item.strip()
                        )
                    elif name == "times":
                        times = int(value)
                    else:
                        raise FaultPlanError(
                            f"unknown fault-rule field {name!r} in {chunk!r} "
                            "(expected p=, keys= or times=)"
                        )
                except (TypeError, ValueError) as error:
                    if isinstance(error, FaultPlanError):
                        raise
                    raise FaultPlanError(f"invalid value in fault rule {chunk!r}")
            rules.append(
                FaultRule(seam=seam, probability=probability, keys=keys, times=times)
            )
        return cls(rules=tuple(rules), seed=seed)


class FaultInjector:
    """Runtime face of a :class:`FaultPlan`: counters, checks, seeded RNG.

    The injector adds the one piece of state a pure plan cannot express:
    *per-(seam, key) call counting* for seams whose attempt number is
    not tracked by a supervisor (checkpoint writes, ingest calls).  The
    count is process-local and lock-guarded; seams with an external
    attempt counter (the supervised task wrapper) pass ``attempt=``
    explicitly and bypass it.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._calls: dict[tuple[str, object], int] = {}
        self._fired: dict[str, int] = {}

    def _next_attempt(self, seam: str, key: object) -> int:
        with self._lock:
            attempt = self._calls.get((seam, key), 0)
            self._calls[(seam, key)] = attempt + 1
            return attempt

    def _record(self, seam: str) -> None:
        with self._lock:
            self._fired[seam] = self._fired.get(seam, 0) + 1
        # Mirror into the metrics registry at the same instant so the
        # /stats (injector.fired()) and /metrics surfaces cannot disagree.
        from repro import obs

        if obs.obs_enabled():
            obs.counter(
                "repro_faults_fired_total",
                "Faults injected, by seam.",
                labelnames=("seam",),
            ).inc(seam=seam)

    def fires(self, seam: str, key: object = None, attempt: Optional[int] = None) -> bool:
        """Whether the seam fails now; counts the call when ``attempt`` is None."""
        if not self.plan.arms(seam):
            return False
        if attempt is None:
            attempt = self._next_attempt(seam, key)
        fired = self.plan.should_fail(seam, key, attempt)
        if fired:
            self._record(seam)
        return fired

    def check(
        self,
        seam: str,
        key: object = None,
        attempt: Optional[int] = None,
        message: str = "",
    ) -> None:
        """Raise :class:`InjectedFault` when the seam fires (else no-op)."""
        if self.fires(seam, key=key, attempt=attempt):
            raise InjectedFault(
                message or f"injected fault at seam {seam!r} (key={key!r})"
            )

    def rng(self, seam: str, key: object, attempt: int = 0) -> np.random.Generator:
        """A generator seeded purely from (plan.seed, seam, key, attempt).

        Seams that *corrupt* rather than raise (``stream.ingest``) draw
        their corruption from this, so the injected garbage is as
        deterministic as the injection decision.
        """
        return np.random.default_rng(_hash_seed(self.plan.seed, seam, key, attempt))

    def fired(self) -> dict[str, int]:
        """Per-seam count of faults injected so far (this process)."""
        with self._lock:
            return dict(self._fired)

    def __repr__(self) -> str:
        return f"FaultInjector(plan={self.plan.spec()!r}, fired={self.fired()})"


#: Explicitly installed injector (wins over the environment).
_ACTIVE: Optional[FaultInjector] = None

#: Cache of the last REPRO_FAULTS value parsed -> its injector.
_ENV_CACHE: tuple[Optional[str], Optional[FaultInjector]] = (None, None)

_STATE_LOCK = threading.Lock()


def install_plan(plan: Union[FaultPlan, str]) -> FaultInjector:
    """Activate a fault plan process-wide; returns its injector.

    An installed plan wins over ``REPRO_FAULTS``.  Pool *workers* do not
    inherit it (they inherit only the environment); the supervised task
    wrapper ships the plan to workers explicitly.
    """
    global _ACTIVE
    if isinstance(plan, str):
        plan = FaultPlan.from_spec(plan)
    injector = FaultInjector(plan)
    with _STATE_LOCK:
        _ACTIVE = injector
    return injector


def clear_plan() -> None:
    """Deactivate any installed plan (the environment plan, if set, resumes)."""
    global _ACTIVE
    with _STATE_LOCK:
        _ACTIVE = None


def active_injector() -> Optional[FaultInjector]:
    """The process-wide injector, or ``None`` when no plan is active.

    Resolution order: an installed plan (:func:`install_plan`) wins;
    otherwise ``REPRO_FAULTS`` is parsed (and cached per value, so the
    hot-path cost of an unset variable is one dict lookup).
    """
    global _ENV_CACHE
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(FAULTS_ENV_VAR)
    if not raw:
        return None
    cached_raw, cached_injector = _ENV_CACHE
    if raw == cached_raw:
        return cached_injector
    injector = FaultInjector(FaultPlan.from_spec(raw))
    with _STATE_LOCK:
        _ENV_CACHE = (raw, injector)
    return injector


@contextmanager
def injected(plan: Union[FaultPlan, str]) -> Iterator[FaultInjector]:
    """Context manager: install a plan for the block, then restore before.

    The chaos tests' front door::

        with injected("task.execute:keys=3:times=1") as chaos:
            results = runner.map(work, tasks, supervision=Supervision())
        assert chaos.fired()["task.execute"] == 1
    """
    global _ACTIVE
    with _STATE_LOCK:
        previous = _ACTIVE
    injector = install_plan(plan)
    try:
        yield injector
    finally:
        with _STATE_LOCK:
            _ACTIVE = previous

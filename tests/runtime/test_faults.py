"""Chaos suite: deterministic fault injection and supervised execution.

The cross-cutting acceptance invariant under test: for every *absorbable*
injected fault plan (worker death, failed worker startup, transient task
failures), the supervised ``TaskRunner.map`` completes with results
**bitwise identical** to the fault-free run, and unabsorbable plans fail
loudly instead of wrongly.
"""

import os
import time
import warnings
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.runtime import (
    DegradedRuntimeWarning,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    InjectedFault,
    Supervision,
    TaskRunner,
    active_injector,
    clear_plan,
    injected,
    install_plan,
    parallel_map,
)
from repro.runtime.faults import FAULTS_ENV_VAR, SEAMS, FaultInjector

#: Zero-backoff supervision: retries are free, tests stay fast.
FAST = Supervision(max_retries=3, backoff_base=0.0)


def _square(value):
    return value * value


def _weighted(value, context):
    return float(context["weights"].sum()) * value


def _sleep_once(payload):
    """Sleep long on the first call (marked by a sentinel file), return fast after.

    The stall shape: the supervisor's per-task timeout must detect that
    no progress is being made and rebuild the pool; the retry then finds
    the sentinel and completes immediately.
    """
    value, sentinel = payload
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("slept")
        time.sleep(2.0)
    return value * 3


@pytest.fixture(autouse=True)
def _no_lingering_plan():
    clear_plan()
    yield
    clear_plan()


class TestFaultPlanSpec:
    def test_round_trip(self):
        spec = "task.execute:p=0.25:times=2;worker.death:keys=1,7;seed=42"
        plan = FaultPlan.from_spec(spec)
        assert plan.seed == 42
        assert len(plan.rules) == 2
        assert FaultPlan.from_spec(plan.spec()).spec() == plan.spec()

    def test_defaults(self):
        plan = FaultPlan.from_spec("checkpoint.write")
        (rule,) = plan.rules
        assert rule.probability == 1.0
        assert rule.times == 1
        assert rule.keys is None
        assert plan.seed == 0

    @pytest.mark.parametrize(
        "spec",
        [
            "not.a.seam",
            "task.execute:p=2.0",
            "task.execute:p=nope",
            "task.execute:times=0",
            "task.execute:unknown=1",
            "seed=abc",
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_spec(spec)

    def test_rule_validation(self):
        with pytest.raises(FaultPlanError):
            FaultRule(seam="worker.death", probability=-0.1)
        with pytest.raises(FaultPlanError):
            FaultRule(seam="bogus")

    def test_all_seams_parse(self):
        for seam in SEAMS:
            assert FaultPlan.from_spec(seam).arms(seam)


class TestDeterminism:
    def test_should_fail_is_pure(self):
        plan_a = FaultPlan.from_spec("task.execute:p=0.5:times=3;seed=9")
        plan_b = FaultPlan.from_spec("task.execute:p=0.5:times=3;seed=9")
        decisions_a = [
            plan_a.should_fail("task.execute", key, attempt)
            for key in range(30)
            for attempt in range(4)
        ]
        decisions_b = [
            plan_b.should_fail("task.execute", key, attempt)
            for key in range(30)
            for attempt in range(4)
        ]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_seed_changes_decisions(self):
        spec = "task.execute:p=0.5:times=1"
        fired = {
            seed: tuple(
                FaultPlan.from_spec(f"{spec};seed={seed}").should_fail(
                    "task.execute", key, 0
                )
                for key in range(64)
            )
            for seed in (1, 2)
        }
        assert fired[1] != fired[2]

    def test_times_caps_attempts(self):
        plan = FaultPlan.from_spec("task.execute:p=1.0:times=2;seed=0")
        assert plan.should_fail("task.execute", 5, 0)
        assert plan.should_fail("task.execute", 5, 1)
        assert not plan.should_fail("task.execute", 5, 2)

    def test_keys_filter(self):
        plan = FaultPlan.from_spec("worker.death:keys=3;seed=0")
        assert plan.should_fail("worker.death", 3, 0)
        assert not plan.should_fail("worker.death", 4, 0)
        assert not plan.should_fail("worker.death", "3x", 0)

    def test_injector_rng_deterministic(self):
        injector = FaultInjector(FaultPlan.from_spec("stream.ingest;seed=5"))
        draws_a = injector.rng("stream.ingest", "s", 2).integers(0, 1000, 8)
        draws_b = injector.rng("stream.ingest", "s", 2).integers(0, 1000, 8)
        np.testing.assert_array_equal(draws_a, draws_b)
        other = injector.rng("stream.ingest", "s", 3).integers(0, 1000, 8)
        assert not np.array_equal(draws_a, other)


class TestInjectorActivation:
    def test_injected_context_installs_and_restores(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert active_injector() is None
        with injected("task.execute;seed=1"):
            inner = active_injector()
            assert inner is not None and inner.plan.arms("task.execute")
            with injected("worker.death;seed=2"):
                assert active_injector().plan.arms("worker.death")
            assert active_injector() is inner
        assert active_injector() is None

    def test_env_plan_activates(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "checkpoint.read:p=1.0;seed=3")
        injector = active_injector()
        assert injector is not None
        assert injector.plan.arms("checkpoint.read")
        # Same env value -> same cached injector (stateful counters live on).
        assert active_injector() is injector

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "checkpoint.read;seed=3")
        install_plan("worker.start;seed=4")
        try:
            assert active_injector().plan.arms("worker.start")
        finally:
            clear_plan()
        assert active_injector().plan.arms("checkpoint.read")

    def test_stateful_fires_counts_calls(self):
        injector = FaultInjector(FaultPlan.from_spec("checkpoint.write:p=1.0;seed=0"))
        assert injector.fires("checkpoint.write", key="ckpt")
        # times=1: the second call at the same (seam, key) does not fire.
        assert not injector.fires("checkpoint.write", key="ckpt")
        assert injector.fires("checkpoint.write", key="other")
        assert injector.fired()["checkpoint.write"] == 2


class TestSupervisionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            Supervision(max_retries=-1)
        with pytest.raises(ValueError):
            Supervision(timeout=0.0)
        with pytest.raises(ValueError):
            Supervision(backoff_factor=0.5)

    def test_backoff_deterministic_and_bounded(self):
        supervision = Supervision(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.4, jitter_seed=7
        )
        delays = [supervision.backoff(3, attempt) for attempt in range(1, 6)]
        assert delays == [supervision.backoff(3, attempt) for attempt in range(1, 6)]
        assert all(0.0 < delay <= 0.4 * 1.5 for delay in delays)
        assert supervision.backoff(4, 1) != supervision.backoff(3, 1)

    def test_zero_base_disables_backoff(self):
        assert FAST.backoff(0, 1) == 0.0


def _expected_error(plan, seam, backend, workers, n_tasks, supervision):
    """The error a supervised ``map`` must raise under ``plan``, or ``None``.

    Every rule fires while ``attempt < times`` on the keys it matches
    (task indices for the task seams, pool generations for
    ``worker.start``), so the outcome follows from the plan alone:

    * The ``serial`` stage checks the task seams with a fresh per-task
      budget, and exhausts a matched task when ``times > max_retries``.
    * ``task.execute`` fails one task at a time in the ``process`` stage
      too, so the same bound holds whichever stage runs last.
    * ``worker.death`` breaks the whole pool on every round while any
      matched task is below ``times``; the matched tasks fail together
      each round, so ``times`` broken rounds pass before a clean one.
    * ``worker.start`` breaks every pool generation it matches.

    A stage that is not last hands what it cannot finish to ``serial``,
    which never consults ``worker.start``.  When ``process`` is last
    (``degrade=False``), a broken round ``k`` fails once ``k`` exceeds
    ``max_retries`` or ``max_pool_rebuilds``, with the pool's
    ``BrokenExecutor``.
    """
    rule = plan.rules[0]
    if backend == "serial" or min(workers, n_tasks) == 1:
        stages = ("serial",)
    else:
        stages = ("process", "serial") if supervision.degrade else ("process",)
    matched = any(rule.matches(plan.seed, index) for index in range(n_tasks))
    if stages[-1] == "serial" or seam == "task.execute":
        if seam == "worker.start" or not matched:
            return None
        return InjectedFault if rule.times > supervision.max_retries else None
    budget = min(supervision.max_retries, supervision.max_pool_rebuilds)
    if seam == "worker.death":
        broken_rounds = rule.times if matched else 0
    else:
        broken_rounds = 0
        while rule.matches(plan.seed, broken_rounds) and broken_rounds <= budget:
            broken_rounds += 1
    return BrokenExecutor if broken_rounds > budget else None


class TestSupervisedEquivalence:
    """Random plans x supervision policies x backends == the fault-free oracle.

    ``map`` returns the serial oracle's results bitwise, or raises exactly
    the error an exhausted last stage raises (see :class:`Supervision`).
    Each ``process`` example starts at least one pool, hence the bounded
    example count.
    """

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("seam", ["task.execute", "worker.death", "worker.start"])
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        probability=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
        times=st.integers(1, 3),
        workers=st.sampled_from([1, 2, 4]),
        n_tasks=st.integers(1, 6),
        max_retries=st.integers(0, 2),
        max_pool_rebuilds=st.integers(0, 2),
        degrade=st.booleans(),
    )
    def test_bitwise_equivalence(
        self, backend, seam, seed, probability, times, workers, n_tasks,
        max_retries, max_pool_rebuilds, degrade,
    ):
        tasks = [float(index) + 0.25 for index in range(n_tasks)]
        oracle = TaskRunner("serial").map(_square, tasks)
        plan = FaultPlan.from_spec(f"{seam}:p={probability}:times={times};seed={seed}")
        supervision = Supervision(
            max_retries=max_retries,
            backoff_base=0.0,
            max_pool_rebuilds=max_pool_rebuilds,
            degrade=degrade,
        )
        expected_error = _expected_error(plan, seam, backend, workers, n_tasks, supervision)
        runner = TaskRunner(backend, max_workers=workers)
        with injected(plan), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if expected_error is None:
                assert runner.map(_square, tasks, supervision=supervision) == oracle
            else:
                with pytest.raises(expected_error):
                    runner.map(_square, tasks, supervision=supervision)
        for warning in caught:
            if issubclass(warning.category, DegradedRuntimeWarning):
                assert "degrading to 'serial'" in str(warning.message)

    def test_fault_free_supervised_equals_unsupervised(self):
        tasks = list(range(20))
        for backend in ("serial", "process"):
            runner = TaskRunner(backend, max_workers=4)
            assert runner.map(_square, tasks, supervision=FAST) == runner.map(
                _square, tasks
            )

    def test_runner_level_supervision_default(self):
        runner = TaskRunner("serial", supervision=FAST)
        with injected("task.execute:p=0.6;seed=3"):
            assert runner.map(_square, list(range(8))) == [
                value * value for value in range(8)
            ]

    def test_parallel_map_forwards_supervision(self):
        with injected("task.execute:p=1.0;seed=1"):
            assert parallel_map(_square, [2, 3], supervision=FAST) == [4, 9]


class TestProcessSupervision:
    def test_worker_death_rebuild_bitwise(self):
        tasks = list(range(10))
        oracle = [value * value for value in tasks]
        runner = TaskRunner("process", max_workers=2)
        with injected("worker.death:p=0.35;seed=11"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = runner.map(
                    _square, tasks, supervision=Supervision(
                        max_retries=3, backoff_base=0.0, max_pool_rebuilds=5
                    )
                )
        assert result == oracle

    def test_context_survives_crash(self):
        """A pickled context reaches every rebuilt pool after ``worker.death``."""
        context = {"weights": np.arange(6.0)}
        tasks = [1.0, 2.0, 3.0, 4.0]
        oracle = [15.0 * value for value in tasks]
        runner = TaskRunner("process", max_workers=2)
        with injected("worker.death:p=0.35;seed=5"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = runner.map(
                    _weighted, tasks, context=context,
                    supervision=Supervision(
                        max_retries=3, backoff_base=0.0, max_pool_rebuilds=5
                    ),
                )
        assert result == oracle

    def test_broken_pool_degrades_with_warning(self):
        runner = TaskRunner("process", max_workers=2)
        with injected("worker.start:p=1.0:times=99;seed=2"):
            with pytest.warns(DegradedRuntimeWarning, match="degrading to 'serial'"):
                result = runner.map(
                    _square, list(range(6)),
                    supervision=Supervision(
                        max_retries=1, backoff_base=0.0, max_pool_rebuilds=1
                    ),
                )
        assert result == [value * value for value in range(6)]

    @pytest.mark.parametrize("max_pool_rebuilds", [0, 1])
    def test_submit_on_broken_pool_rebuilds_or_degrades(self, monkeypatch, max_pool_rebuilds):
        """``submit`` itself raising BrokenProcessPool fails the unsubmitted tasks.

        A worker that dies while the submit loop is still running breaks the
        pool synchronously; the supervisor must treat that like any broken
        pool — rebuild within budget, otherwise degrade — not leak the error.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        submit = ProcessPoolExecutor.submit
        calls = []

        def submit_breaking_second_call(executor, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise BrokenProcessPool("worker died during submission")
            return submit(executor, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_breaking_second_call)
        tasks = list(range(6))
        oracle = TaskRunner("serial").map(_square, tasks)
        runner = TaskRunner("process", max_workers=2)
        supervision = Supervision(
            max_retries=2, backoff_base=0.0, max_pool_rebuilds=max_pool_rebuilds
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.map(_square, tasks, supervision=supervision)
        degraded = [w for w in caught if issubclass(w.category, DegradedRuntimeWarning)]
        if max_pool_rebuilds == 0:
            assert degraded and "degrading to 'serial'" in str(degraded[0].message)
        else:
            assert not degraded
            assert len(calls) > len(tasks)  # the rebuilt pool resubmitted
        assert result == oracle

    def test_stall_timeout_rebuilds(self, tmp_path):
        """A round that stalls past ``timeout`` fails; the rebuilt pool finishes it.

        Two tasks on two workers, so the process stage runs (a single
        task would run on ``serial``, which ignores ``timeout``).
        """
        sentinel = str(tmp_path / "slept-once")
        runner = TaskRunner("process", max_workers=2)
        with obs.obs_override(True), obs.use_registry() as registry:
            result = runner.map(
                _sleep_once, [(7, sentinel), (1, sentinel)],
                supervision=Supervision(
                    max_retries=2, timeout=0.4, backoff_base=0.0, max_pool_rebuilds=3
                ),
            )
        assert result == [21, 3]
        assert os.path.exists(sentinel)
        assert registry.get("repro_runtime_retries_total").value(stage="process") >= 1

    def test_degrade_disabled_raises(self):
        runner = TaskRunner("process", max_workers=2)
        with injected("task.execute:p=1.0:times=99;seed=1"):
            with pytest.raises(InjectedFault):
                runner.map(
                    _square, [1, 2],
                    supervision=Supervision(
                        max_retries=1, backoff_base=0.0, degrade=False
                    ),
                )

    def test_serial_exhaustion_reraises(self):
        with injected("task.execute:p=1.0:times=99;seed=1"):
            with pytest.raises(InjectedFault):
                TaskRunner("serial").map(_square, [1], supervision=FAST)

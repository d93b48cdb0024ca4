"""Fault-tolerance tax: supervised execution vs. the unsupervised baseline.

Supervision (retry bookkeeping, fault-seam checks, degradation plumbing)
must be close to free when nothing fails — otherwise nobody leaves it on
in production and the chaos guarantees are theoretical.  Two measurements:

* **supervision overhead** — ``TaskRunner.map`` over real NumPy work with
  and without a :class:`~repro.runtime.Supervision` policy, **no fault
  plan active** (the environment plan is cleared for the timed region so
  the chaos CI job measures the same thing a clean run does).  Min-of-k
  timing; gate: <= 5% overhead on the serial engine, enforced when
  ``REPRO_FAULT_GATES`` is set (the ``workflow_dispatch`` chaos CI job
  sets it).  The ``process:2`` number is recorded ungated (the
  supervised path submits one task per future, and pool start-up noise
  dwarfs the supervision arithmetic there).
* **chaos recovery** — the same workload on ``process:2`` under an
  absorbable ``worker.death`` plan, where a death is a real worker
  ``os._exit`` that breaks the pool: wall-clock to completion recorded
  ungated, with the bitwise-equivalence invariant asserted on every run.

All numbers land in ``.bench_out/pytest/BENCH_faults.json`` via the session
hook, alongside the fault-plan metadata every benchmark JSON now carries.
"""

import os
import time

import numpy as np

from repro.runtime import Supervision, TaskRunner, clear_plan, injected
from repro.runtime.faults import FAULTS_ENV_VAR

#: Whether the wall-clock gate is enforced (equivalence always is).
GATES_ENFORCED = bool(os.environ.get("REPRO_FAULT_GATES"))

#: Maximum tolerated fault-free supervision overhead on the serial engine.
SUPERVISION_OVERHEAD_GATE = 0.05

N_TASKS = 64
TIMING_REPEATS = 5


def _numpy_work(task):
    """Real per-task work (~1 ms of array math; module-level for pickling)."""
    rng = np.random.default_rng(task)
    matrix = rng.standard_normal((64, 512))
    return float(np.tanh(matrix @ matrix.T).sum())


def _min_seconds(function, repeats: int = TIMING_REPEATS) -> float:
    function()  # warmup
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


class _no_fault_plan:
    """Clear any installed/environment fault plan for the timed region."""

    def __enter__(self):
        clear_plan()
        self._env = os.environ.pop(FAULTS_ENV_VAR, None)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._env is not None:
            os.environ[FAULTS_ENV_VAR] = self._env


def test_bench_supervision_overhead(fault_timings):
    """Fault-free supervised map pays <= 5% over the unsupervised one."""
    tasks = list(range(N_TASKS))
    supervision = Supervision(backoff_base=0.0)

    with _no_fault_plan():
        serial = TaskRunner("serial")
        expected = serial.map(_numpy_work, tasks)
        assert serial.map(_numpy_work, tasks, supervision=supervision) == expected

        bare_s = _min_seconds(lambda: serial.map(_numpy_work, tasks))
        supervised_s = _min_seconds(
            lambda: serial.map(_numpy_work, tasks, supervision=supervision)
        )

        process = TaskRunner("process", max_workers=2)
        assert process.map(_numpy_work, tasks, supervision=supervision) == expected
        process_bare_s = _min_seconds(lambda: process.map(_numpy_work, tasks))
        process_supervised_s = _min_seconds(
            lambda: process.map(_numpy_work, tasks, supervision=supervision)
        )

    overhead = supervised_s / bare_s - 1.0
    fault_timings["serial_unsupervised_s"] = bare_s
    fault_timings["serial_supervised_s"] = supervised_s
    fault_timings["serial_supervision_overhead"] = overhead
    fault_timings["process_unsupervised_s"] = process_bare_s
    fault_timings["process_supervised_s"] = process_supervised_s
    fault_timings["process_supervision_overhead"] = process_supervised_s / process_bare_s - 1.0
    fault_timings["gates_enforced"] = float(GATES_ENFORCED)

    print(
        f"supervision_overhead: serial {overhead * 100:+.2f}% "
        f"(gate <= {SUPERVISION_OVERHEAD_GATE * 100:.0f}%, enforced={GATES_ENFORCED})"
    )
    if GATES_ENFORCED:
        assert overhead <= SUPERVISION_OVERHEAD_GATE, (
            f"fault-free supervision overhead {overhead * 100:.2f}% exceeds "
            f"{SUPERVISION_OVERHEAD_GATE * 100:.0f}% gate"
        )


def test_bench_chaos_recovery(fault_timings):
    """An absorbable worker-death plan completes bitwise-correct; time it."""
    tasks = list(range(N_TASKS))
    with _no_fault_plan():
        expected = TaskRunner("serial").map(_numpy_work, tasks)
        runner = TaskRunner("process", max_workers=2)
        supervision = Supervision(max_retries=2, backoff_base=0.0)

        def chaotic():
            with injected("worker.death:p=0.2;seed=13"):
                return runner.map(_numpy_work, tasks, supervision=supervision)

        assert chaotic() == expected
        fault_timings["process_chaos_recovery_s"] = _min_seconds(chaotic, repeats=3)

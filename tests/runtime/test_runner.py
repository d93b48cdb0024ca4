"""Unit tests for the TaskRunner / parallel_map execution substrate."""

import copy

import numpy as np
import pytest

from repro.runtime import (
    BACKENDS,
    RUNTIME_ENV_VAR,
    TaskRunner,
    available_workers,
    in_worker,
    parallel_map,
    resolve_runner,
)
from repro.runtime.runner import _WORKER_ENV_VAR


def _square(value):
    return value * value


def _raise_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


def _report_worker_context(_):
    return in_worker()


def _scale_by_context(value, shared):
    return value * shared["factor"]


def _weighted_row(task, context):
    row = context["matrix"][task]
    return (row * context["params"]["weights"]).sum() + context["params"]["bias"]


def _row_stats(task, context):
    row = context["matrix"][task]
    return [float(row.min()), float(row.max()), float(row @ row)]


class TestTaskRunner:
    def test_backends_constant(self):
        assert BACKENDS == ("serial", "process")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            TaskRunner("gpu")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            TaskRunner("process", max_workers=0)

    def test_default_workers_positive(self):
        assert TaskRunner("process").max_workers >= 1
        assert available_workers() >= 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_preserves_order(self, backend):
        runner = TaskRunner(backend, max_workers=2)
        assert runner.map(_square, range(10)) == [v * v for v in range(10)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_empty(self, backend):
        assert TaskRunner(backend, max_workers=2).map(_square, []) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exceptions_propagate(self, backend):
        runner = TaskRunner(backend, max_workers=2)
        with pytest.raises(ValueError):
            runner.map(_raise_on_three, [1, 2, 3, 4])

    def test_deepcopy_is_cheap_handle(self):
        runner = TaskRunner("process", max_workers=3)
        clone = copy.deepcopy(runner)
        assert clone.backend == "process"
        assert clone.max_workers == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shared_context_reaches_every_task(self, backend):
        runner = TaskRunner(backend, max_workers=2)
        results = runner.map(_scale_by_context, [1, 2, 3, 4], context={"factor": 10})
        assert results == [10, 20, 30, 40]

    @pytest.mark.parametrize("max_workers", [1, 2, 4])
    @pytest.mark.parametrize("function", [_weighted_row, _row_stats])
    def test_array_context_process_equals_serial(self, function, max_workers):
        """A nested array context pickled into process workers is bitwise invisible."""
        rng = np.random.default_rng(29)
        context = {
            "matrix": rng.standard_normal((40, 6)),
            "params": {"weights": rng.standard_normal(6), "bias": -0.5},
        }
        tasks = list(range(len(context["matrix"])))
        expected = TaskRunner("serial").map(function, tasks, context=context)
        runner = TaskRunner("process", max_workers=max_workers)
        assert runner.map(function, tasks, context=context) == expected

    @pytest.mark.parametrize("n_tasks", [2, 9, 17, 64])
    def test_derived_dispatch_size_preserves_results(self, n_tasks):
        """``max(1, n // (workers * 4))`` tasks per dispatch: 1, 1, 2 and 8 here."""
        values = range(-(n_tasks // 2), n_tasks - n_tasks // 2)
        runner = TaskRunner("process", max_workers=2)
        assert runner.map(abs, values) == [abs(v) for v in values]

    def test_repr_mentions_backend(self):
        assert "process" in repr(TaskRunner("process", max_workers=2))


class TestSpecParsing:
    def test_plain_backend(self):
        assert TaskRunner.from_spec("process").backend == "process"

    def test_backend_with_workers(self):
        runner = TaskRunner.from_spec("process:4")
        assert runner.backend == "process"
        assert runner.max_workers == 4

    def test_whitespace_and_case(self):
        assert TaskRunner.from_spec(" Serial ").backend == "serial"

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            TaskRunner.from_spec("process:lots")

    def test_bad_backend(self):
        with pytest.raises(ValueError):
            TaskRunner.from_spec("cluster:2")

    @pytest.mark.parametrize("spec", ["thread", "thread:2", "thread:x"])
    def test_removed_thread_backend_names_the_valid_ones(self, spec):
        with pytest.raises(ValueError, match=r"\('serial', 'process'\)"):
            TaskRunner.from_spec(spec)


class TestResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(RUNTIME_ENV_VAR, raising=False)
        assert resolve_runner(None).backend == "serial"

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_ENV_VAR, "process:2")
        runner = resolve_runner(None)
        assert runner.backend == "process"
        assert runner.max_workers == 2

    def test_env_variable_with_removed_backend_raises(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_ENV_VAR, "thread:2")
        with pytest.raises(ValueError, match=r"\('serial', 'process'\)"):
            resolve_runner(None)

    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_ENV_VAR, "process:2")
        assert resolve_runner("serial").backend == "serial"

    def test_runner_instance_passes_through(self):
        runner = TaskRunner("process", max_workers=2)
        assert resolve_runner(runner) is runner

    def test_process_worker_env_degrades_to_serial(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_ENV_VAR, "process:4")
        monkeypatch.setenv(_WORKER_ENV_VAR, "1")
        assert resolve_runner(None).backend == "serial"

    def test_explicit_spec_degrades_inside_worker(self, monkeypatch):
        # One fan-out level at a time: even explicit specs and runner
        # instances resolve to serial from within a worker.
        monkeypatch.setenv(_WORKER_ENV_VAR, "1")
        assert resolve_runner("process:4").backend == "serial"
        assert resolve_runner(TaskRunner("process", max_workers=2)).backend == "serial"

    def test_process_workers_flag_worker_context(self):
        results = TaskRunner("process", max_workers=2).map(
            _report_worker_context, range(4)
        )
        assert all(results)
        assert not in_worker()

    def test_parallel_map_convenience(self):
        assert parallel_map(_square, [1, 2, 3], runtime="process:2") == [1, 4, 9]

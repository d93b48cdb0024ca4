"""Span tracing: timing, parentage, ring buffer, cross-backend propagation."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.tracing import SpanRecord, Tracer
from repro.runtime.runner import Supervision, TaskRunner


def _square(x: int) -> int:
    return x * x


def _traced_square(x: int) -> int:
    """A task that opens its own span (module-level: picklable for process)."""
    with obs.trace_span("task.work", index=x):
        return x * x


class TestSpanBasics:
    def test_durations_use_the_injected_clock(self, fresh_tracer, clock):
        with obs.trace_span("outer"):
            clock.advance(1.0)
            with obs.trace_span("inner"):
                clock.advance(0.25)
            clock.advance(0.5)
        by_name = {record.name: record for record in fresh_tracer.spans()}
        assert by_name["inner"].duration == pytest.approx(0.25)
        assert by_name["outer"].duration == pytest.approx(1.75)

    def test_nesting_links_parent_ids(self, fresh_tracer):
        with obs.trace_span("outer"):
            with obs.trace_span("inner"):
                pass
        by_name = {record.name: record for record in fresh_tracer.spans()}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].trace_id == by_name["outer"].trace_id
        assert by_name["outer"].parent_id is None

    def test_explicit_none_parent_forces_a_root(self, fresh_tracer):
        with obs.trace_span("outer"):
            with obs.trace_span("detached", parent=None):
                pass
        by_name = {record.name: record for record in fresh_tracer.spans()}
        assert by_name["detached"].parent_id is None
        assert by_name["detached"].trace_id != by_name["outer"].trace_id

    def test_attrs_and_error_status(self, fresh_tracer):
        with pytest.raises(RuntimeError):
            with obs.trace_span("work", shard=3):
                raise RuntimeError("boom")
        (record,) = fresh_tracer.spans()
        assert record.attrs["shard"] == 3
        assert record.status == "error"

    def test_disabled_yields_none_and_records_nothing(self, fresh_tracer):
        with obs.obs_override(False):
            with obs.trace_span("ghost") as handle:
                assert handle is None
        assert fresh_tracer.spans() == []

    def test_ring_buffer_keeps_newest(self, clock):
        tracer = Tracer(max_spans=4, clock=clock)
        with obs.obs_override(True), obs.use_tracer(tracer):
            for index in range(10):
                with obs.trace_span("tick", index=index):
                    pass
        records = tracer.spans()
        assert len(records) == 4
        assert [record.attrs["index"] for record in records] == [6, 7, 8, 9]

    def test_mark_and_since_slice_disjointly(self, fresh_tracer):
        with obs.trace_span("before"):
            pass
        mark = fresh_tracer.mark()
        with obs.trace_span("after"):
            pass
        names = [record.name for record in fresh_tracer.since(mark)]
        assert names == ["after"]

    def test_absorb_round_trips_dicts(self, fresh_tracer):
        with obs.trace_span("local"):
            pass
        shipped = [record.to_dict() for record in fresh_tracer.spans()]
        other = Tracer()
        other.absorb(shipped)
        (record,) = other.spans()
        assert isinstance(record, SpanRecord)
        assert record.name == "local"
        assert record.duration == pytest.approx(shipped[0]["end"] - shipped[0]["start"])


class TestCrossBackendParentage:
    """Task spans attach to the dispatching runtime.map span on every backend."""

    @pytest.mark.parametrize("runtime", ["serial", "process:2"])
    def test_task_spans_parent_to_runtime_map(self, runtime):
        with obs.obs_override(True), obs.use_tracer(Tracer()) as tracer, obs.use_registry():
            runner = TaskRunner.from_spec(runtime)
            results = runner.map(_traced_square, [1, 2, 3, 4])
            assert results == [1, 4, 9, 16]
            maps = tracer.spans("runtime.map")
            tasks = tracer.spans("task.work")
            assert len(maps) == 1
            assert len(tasks) == 4
            for record in tasks:
                assert record.parent_id == maps[0].span_id
                assert record.trace_id == maps[0].trace_id

    def test_process_backend_merges_worker_metrics(self):
        with obs.obs_override(True), obs.use_tracer(Tracer()), obs.use_registry() as reg:
            runner = TaskRunner.from_spec("process:2")
            runner.map(_square, list(range(6)))
            family = reg.get("repro_runtime_tasks_total")
            assert family is not None
            assert family.value(backend="process") == 6

    @pytest.mark.parametrize("supervised", [False, True])
    def test_process_workers_do_not_resend_parent_counts(self, supervised):
        """Forked workers start from an empty registry: N maps read N."""
        supervision = Supervision(backoff_base=0.0) if supervised else None
        with obs.obs_override(True), obs.use_tracer(Tracer()), obs.use_registry() as reg:
            parent_only = obs.counter("test_parent_only_total", "Parent-side count.")
            parent_only.inc(5)
            runner = TaskRunner.from_spec("process:2")
            for _ in range(3):
                runner.map(_square, list(range(6)), supervision=supervision)
            assert reg.get("repro_runtime_tasks_total").value(backend="process") == 18
            assert parent_only.value() == 5

    def test_use_parent_adopts_a_shipped_context(self, fresh_tracer):
        with obs.trace_span("dispatch"):
            carrier = obs.current_context()
        assert carrier is not None
        with obs.use_parent(carrier):
            with obs.trace_span("remote.work"):
                pass
        by_name = {record.name: record for record in fresh_tracer.spans()}
        assert by_name["remote.work"].parent_id == by_name["dispatch"].span_id

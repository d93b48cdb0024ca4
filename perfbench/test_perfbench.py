"""Tests of the benchmark's own helpers and of the traced/untraced equivalence."""

import json
import os
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER, TRACE_PROBES
from perfbench.measure import (
    Calibrator,
    Span,
    check_metric_name,
    covered_length,
    percentile,
    quartile_spread,
    root_coverage,
    self_times,
)
from perfbench.probes import Probe, Recorder, installed

ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------- #


def test_self_time_of_nested_spans():
    spans = [
        Span("outer", 0.0, 10.0),
        Span("middle", 2.0, 5.0, parent=0),
        Span("inner", 3.0, 4.0, parent=1),
        Span("middle", 6.0, 7.0, parent=0),
    ]
    assert self_times(spans) == {"outer": 6.0, "middle": 3.0, "inner": 1.0}


def test_self_time_subtracts_overlapping_children_once():
    # Two children recorded from different threads overlap in [3, 4].
    spans = [
        Span("parent", 0.0, 10.0),
        Span("child", 1.0, 4.0, parent=0),
        Span("child", 3.0, 6.0, parent=0),
    ]
    assert self_times(spans) == {"parent": 5.0, "child": 6.0}


def test_self_time_clips_children_to_the_parent():
    spans = [Span("parent", 0.0, 2.0), Span("child", 1.0, 5.0, parent=0)]
    assert self_times(spans)["parent"] == 1.0


def test_covered_length_and_root_coverage():
    assert covered_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4.0
    spans = [Span("a", 1.0, 3.0), Span("b", 2.0, 4.0), Span("c", 2.5, 2.6, parent=0)]
    assert root_coverage(spans, 0.0, 6.0) == pytest.approx(0.5)


# --------------------------------------------------------------------- #
# Percentiles and spreads
# --------------------------------------------------------------------- #


def test_percentile_carries_its_sample_count():
    p50 = percentile(range(1, 11), 50)
    assert (p50.value, p50.count) == (5.5, 10)
    p90 = percentile([4.0, 1.0, 3.0, 2.0], 90)
    assert p90.count == 4 and p90.value == pytest.approx(3.7)
    assert (percentile([], 90).value, percentile([], 90).count) == (0.0, 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_calibrator_scales_to_reference_seconds():
    calibrator = Calibrator()
    kernel = calibrator.time()
    assert kernel > 0
    # A pass measured while the kernel ran twice as slow as nominal took
    # half as many reference seconds.
    assert calibrator.scale(3.0, 2 * Calibrator.NOMINAL_S) == pytest.approx(1.5)
    assert calibrator.scale(3.0, Calibrator.NOMINAL_S) == pytest.approx(3.0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    first, _, third = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((third - first) / statistics.median(values))


# --------------------------------------------------------------------- #
# Metric names
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", ["wall_s", "features.extract_s.lrsm", "a-b.c_1"])
def test_metric_name_grammar_accepts(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "wall s", "events/s", "p50%", "ms\n"])
def test_metric_name_grammar_rejects(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    from perfbench.run import END_TO_END

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        check_metric_name(metric["name"])


# --------------------------------------------------------------------- #
# Probes
# --------------------------------------------------------------------- #


class _Base:
    def inherited(self, value):
        return value + 1


class _Target(_Base):
    def method(self, value):
        return self.inherited(value) * 2

    @classmethod
    def build(cls, value):
        return cls().method(value)


def test_probes_record_nested_spans_and_restore_originals(monkeypatch):
    module = types.ModuleType("repro._perfbench_probe_target")
    module.Target = _Target
    monkeypatch.setitem(sys.modules, module.__name__, module)
    originals = (_Target.__dict__["method"], _Target.__dict__["build"])
    probes = [
        Probe(f"{module.__name__}:Target.build", "build"),
        Probe(f"{module.__name__}:Target.method", "method"),
        Probe(f"{module.__name__}:Target.inherited", "inherited", kind="count"),
    ]
    recorder = Recorder()
    with installed(probes, recorder):
        assert _Target.build(3) == 8
    assert [(s.name, s.parent) for s in recorder.spans()] == [("build", -1), ("method", 0)]
    assert recorder.counts == {"inherited": 1}
    assert (_Target.__dict__["method"], _Target.__dict__["build"]) == originals
    assert "inherited" not in _Target.__dict__


def test_function_probes_reach_every_importing_module(monkeypatch):
    def helper():
        return 42

    defining = types.ModuleType("repro._perfbench_defining")
    importing = types.ModuleType("repro._perfbench_importing")
    defining.helper = importing.alias = helper
    monkeypatch.setitem(sys.modules, defining.__name__, defining)
    monkeypatch.setitem(sys.modules, importing.__name__, importing)
    recorder = Recorder()
    with installed([Probe(f"{defining.__name__}:helper", "helper", kind="sample")], recorder):
        assert defining.helper() == importing.alias() == 42
    assert len(recorder.samples["helper"]) == 2
    assert defining.helper is helper and importing.alias is helper


# --------------------------------------------------------------------- #
# Traced and untraced runs produce identical outputs
# --------------------------------------------------------------------- #


def _small_workloads():
    from perfbench.workloads import BatchScore, FleetIngest, StreamScore, TrainIdentify

    return [
        StreamScore(sessions=12, steps=3),
        FleetIngest(sessions=12, steps=4, report_every=2),
        BatchScore(matchers=8, damaged=6),
        TrainIdentify(n_po=8, n_folds=2, pinned_digest=None),
    ]


@pytest.mark.parametrize("workload", _small_workloads(), ids=lambda w: w.name)
def test_traced_pass_reproduces_untraced_outputs(workload, tmp_path):
    state = workload.setup(3, tmp_path)
    plain = workload.run_pass(state, 0)
    recorder = Recorder()
    with installed(TRACE_PROBES, recorder):
        traced = workload.run_pass(state, 1)
    assert traced.digest == plain.digest
    assert recorder.spans(), "the traced pass recorded no spans"
    report = workload.check(state, [plain, traced])
    if workload.name != "fleet-ingest":  # too short for its scripted death
        assert report.failed == [0, 0], report.notes


def test_refuses_an_ambient_fault_plan():
    env = dict(os.environ, REPRO_FAULTS="stream.ingest:times=1;seed=0")
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "stream-score",
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
    assert "REPRO_FAULTS" in completed.stderr

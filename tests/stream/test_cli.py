"""The ``python -m repro.stream`` driver: replay, checkpoint, resume, inspect."""

import json

import numpy as np
import pytest

from repro.serve.service import CharacterizationService
from repro.stream import cli


@pytest.fixture
def fast_service(stream_service, monkeypatch):
    """Skip the in-process model fit: serve the shared test model instead."""
    monkeypatch.setattr(cli, "_build_service", lambda args: stream_service)
    return stream_service


def test_replay_reports_scores_over_time(fast_service, capsys):
    code = cli.main(
        ["replay", "--sessions", "4", "--seed", "3", "--steps", "4", "--report-every", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "step" in out and "precise" in out
    assert "across 4 sessions" in out


def test_replay_json_format(fast_service, capsys):
    code = cli.main(
        ["replay", "--sessions", "3", "--seed", "3", "--steps", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["n_sessions"] == 3
    assert len(payload["final_scores"]) == 3
    assert all("probabilities" in entry for entry in payload["final_scores"].values())
    assert payload["reports"][-1]["n_scored"] >= 1


def test_replay_checkpoint_resume_inspect(fast_service, tmp_path, capsys):
    checkpoint = str(tmp_path / "ckpt")
    full = [
        "replay", "--sessions", "3", "--seed", "3", "--steps", "4",
        "--report-every", "2", "--format", "json",
    ]
    assert cli.main(full) == 0
    uninterrupted = json.loads(capsys.readouterr().out)["final_scores"]

    half = [
        "replay", "--sessions", "3", "--seed", "3", "--steps", "4",
        "--report-every", "2", "--stop-after", "2", "--checkpoint", checkpoint,
    ]
    assert cli.main(half) == 0
    assert "saved 3-session checkpoint" in capsys.readouterr().out

    assert cli.main(["inspect", "--checkpoint", checkpoint]) == 0
    inspected = capsys.readouterr().out
    assert "repro-stream-checkpoint v2" in inspected
    assert "sessions:       3" in inspected

    resumed = [
        "replay", "--sessions", "3", "--seed", "3", "--steps", "4",
        "--report-every", "2", "--resume", checkpoint, "--format", "json",
    ]
    assert cli.main(resumed) == 0
    resumed_payload = json.loads(capsys.readouterr().out)
    assert resumed_payload["resumed_from"] == checkpoint
    assert resumed_payload["final_scores"] == uninterrupted


def test_replay_with_eviction_and_reorder_flags(fast_service, capsys):
    code = cli.main(
        [
            "replay", "--sessions", "4", "--seed", "3", "--steps", "3",
            "--max-sessions", "2", "--reorder-window", "1.5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "across 2 sessions" in out
    assert "(0 evicted" not in out  # the LRU cap forced evictions


def test_replay_idle_timeout_evicts(fast_service, capsys):
    """Sessions whose traces end early are dropped by event-time idleness."""
    code = cli.main(
        [
            "replay", "--sessions", "4", "--seed", "3", "--steps", "8",
            "--idle-timeout", "40",
        ]
    )
    assert code == 0
    assert "(0 evicted" not in capsys.readouterr().out


def _zero_start_matcher(matcher_id, shift):
    """A matcher whose trace starts at exactly t = 0 (relative adapter time)."""
    from repro.matching.history import Decision, DecisionHistory
    from repro.matching.matcher import HumanMatcher
    from repro.matching.mouse import MovementMap

    movement = MovementMap.from_arrays(
        np.array([10.0, 40.0, 70.0]) + shift,
        np.array([20.0, 50.0, 80.0]) + shift,
        np.array([0, 1, 0]),
        np.array([0.0, 0.0, 5.0]),
    )
    history = DecisionHistory(
        [Decision(0, 0, 0.9, 0.0), Decision(1, 2, 0.4, 4.0)], shape=(3, 3)
    )
    return HumanMatcher(matcher_id=matcher_id, history=history, movement=movement)


def test_replay_delivers_entries_at_time_zero(stream_model):
    """Events and decisions at t = 0.0 fall inside the first window."""
    workload = [_zero_start_matcher("m-0", 0.0), _zero_start_matcher("m-1", 3.0)]
    manager = cli.SessionManager(CharacterizationService(stream_model))
    cli._replay(manager, workload, steps=2, report_every=1, runtime=None)
    for matcher in workload:
        session = manager.session(matcher.matcher_id)
        assert len(session.buffer) == len(matcher.movement) == 3
        assert session.decisions == list(matcher.history.decisions)
    cold = CharacterizationService(stream_model).score_batch(workload)
    final = manager.scores()
    for row, matcher_id in enumerate(cold.matcher_ids):
        assert np.array_equal(final[matcher_id]["labels"], cold.labels[row])
        assert np.array_equal(final[matcher_id]["probabilities"], cold.probabilities[row])


@pytest.fixture
def trace_file(workload, tmp_path):
    from repro.adapters import JsonlTraceFormat, trace_from_matcher

    traces = [trace_from_matcher(matcher) for matcher in workload]
    return JsonlTraceFormat.write(tmp_path / "trace.jsonl", traces)


class TestAdapterInput:
    def test_replay_input_reports_quarantine(self, fast_service, trace_file, capsys):
        from repro.adapters import JsonlTraceFormat
        from repro.simulation.corruption import write_corrupted_trace

        traces = JsonlTraceFormat.read(trace_file)
        dirty = trace_file.parent / "dirty.jsonl"
        report = write_corrupted_trace(
            traces, dirty, "jsonl", seed=9,
            n_unparseable=2, n_schema_invalid=2, n_clock_skew=1, n_duplicate=2,
        )
        code = cli.main(
            ["replay", "--input", f"jsonl:{dirty}", "--steps", "3", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = report.expected_counts()
        assert payload["quarantined"]["by_reason"]["unparseable"] == expected[
            "unparseable"
        ]
        assert payload["quarantined"]["total"] == sum(expected.values())
        assert payload["workload"]["source"] == f"jsonl:{dirty}"
        assert payload["workload"]["fingerprint"]

        code = cli.main(["replay", "--input", f"jsonl:{dirty}", "--steps", "3"])
        assert code == 0
        table = capsys.readouterr().out
        assert f"quarantined {sum(expected.values())} rows" in table

    def test_resume_same_input_is_silent(
        self, fast_service, trace_file, tmp_path, capsys, recwarn
    ):
        checkpoint = str(tmp_path / "ckpt")
        source = f"jsonl:{trace_file}"
        assert cli.main(
            ["replay", "--input", source, "--steps", "2", "--checkpoint", checkpoint]
        ) == 0
        assert cli.main(["inspect", "--checkpoint", checkpoint]) == 0
        inspected = capsys.readouterr().out
        assert "workload:" in inspected and "trace v1" in inspected
        assert cli.main(
            ["replay", "--input", source, "--steps", "2", "--resume", checkpoint]
        ) == 0
        from repro.runtime.faults import ReproRuntimeWarning

        assert not [
            w for w in recwarn if isinstance(w.message, ReproRuntimeWarning)
        ]

    def test_resume_against_a_different_trace_warns(
        self, fast_service, trace_file, tmp_path, capsys
    ):
        from repro.adapters import JsonlTraceFormat
        from repro.runtime.faults import ReproRuntimeWarning

        checkpoint = str(tmp_path / "ckpt")
        assert cli.main(
            [
                "replay", "--input", f"jsonl:{trace_file}", "--steps", "2",
                "--checkpoint", checkpoint,
            ]
        ) == 0
        capsys.readouterr()

        other = trace_file.parent / "other.jsonl"
        JsonlTraceFormat.write(other, JsonlTraceFormat.read(trace_file)[:3])
        with pytest.warns(ReproRuntimeWarning, match="different trace"):
            cli.main(
                [
                    "replay", "--input", f"jsonl:{other}", "--steps", "2",
                    "--resume", checkpoint,
                ]
            )

    def test_resume_from_a_workloadless_checkpoint_warns(
        self, fast_service, trace_file, tmp_path, capsys
    ):
        from repro.runtime.faults import ReproRuntimeWarning

        checkpoint = str(tmp_path / "ckpt")
        assert cli.main(
            [
                "replay", "--sessions", "5", "--seed", "3", "--steps", "2",
                "--checkpoint", checkpoint,
            ]
        ) == 0
        capsys.readouterr()
        with pytest.warns(ReproRuntimeWarning, match="records no input workload"):
            cli.main(
                [
                    "replay", "--input", f"jsonl:{trace_file}", "--steps", "2",
                    "--resume", checkpoint,
                ]
            )

    def test_decisions_input_requires_input(self, fast_service, trace_file):
        with pytest.raises(SystemExit):
            cli.main(
                ["replay", "--decisions-input", f"jsonl:{trace_file}", "--steps", "2"]
            )

    def test_recovery_abort_surfaces_adapter_error(self, fast_service, tmp_path):
        from repro.adapters import AdapterError

        dirty = tmp_path / "dirty.jsonl"
        dirty.write_text("{broken\n")
        with pytest.raises(AdapterError, match="unparseable"):
            cli.main(
                [
                    "replay", "--input", f"jsonl:{dirty}", "--steps", "2",
                    "--recovery", "abort",
                ]
            )


@pytest.mark.parametrize("value", ["-1", "-0.001", "nan"])
def test_negative_clock_skew_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args(["replay", "--clock-skew", value])
    assert excinfo.value.code == 2
    assert "--clock-skew: must be a non-negative number" in capsys.readouterr().err
    assert cli.build_parser().parse_args(["replay", "--clock-skew", "0"]).clock_skew == 0.0

"""The ``python -m repro.shard`` driver: replay --verify, checkpoints, inspect."""

import json

import pytest

from repro.shard import cli
from repro.stream import cli as stream_cli


@pytest.fixture
def fast_fleet(shard_service, monkeypatch):
    """Skip the in-process model fit: serve the shared test model instead."""
    monkeypatch.setattr(
        stream_cli, "build_service", lambda *args, **kwargs: shard_service
    )
    return shard_service


def test_replay_verifies_against_oracle(fast_fleet, capsys):
    code = cli.main(
        [
            "replay", "--sessions", "8", "--shards", "3", "--steps", "3",
            "--report-every", "1", "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_bitwise_equal"] is True
    assert payload["fleet"]["shards"] == 3
    assert payload["final_scored"] == 8
    assert payload["stats"]["totals"]["rejected_events"] == 0


def test_replay_checkpoint_then_inspect(fast_fleet, tmp_path, capsys):
    root = str(tmp_path / "fleet-ckpt")
    code = cli.main(
        [
            "replay", "--sessions", "6", "--shards", "2", "--steps", "4",
            "--report-every", "2", "--checkpoint-root", root,
            "--checkpoint-every-report",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["replay"]["checkpoints"] >= 2  # 2 shards x >= 1 report

    assert cli.main(["inspect", "--checkpoint-root", root]) == 0
    inspected = capsys.readouterr().out
    assert "router:" in inspected
    assert "shard-00" in inspected and "shard-01" in inspected
    assert "latest-good" in inspected


def test_inspect_missing_root_fails_cleanly(tmp_path, capsys):
    assert cli.main(["inspect", "--checkpoint-root", str(tmp_path / "nope")]) == 1
    assert "no fleet manifest" in capsys.readouterr().out


def test_replay_adapter_input_verifies_and_counts_quarantine(
    fast_fleet, small_task, tmp_path, capsys
):
    """A corrupted external trace file, screened at the adapter and fanned
    out over shards, must still verify bitwise against the oracle — and the
    payload must surface the adapter's quarantine ledger."""
    from repro.adapters import JsonlTraceFormat, trace_from_matcher
    from repro.simulation import simulate_population
    from repro.simulation.corruption import write_corrupted_trace

    pair, reference = small_task
    cohort = simulate_population(
        pair, reference, n_matchers=5, random_state=21, id_prefix="ext"
    )
    traces = [trace_from_matcher(m) for m in cohort]
    dirty = tmp_path / "dirty.jsonl"
    report = write_corrupted_trace(
        traces, dirty, "jsonl", seed=13,
        n_unparseable=2, n_schema_invalid=1, n_clock_skew=1, n_duplicate=2,
    )

    code = cli.main(
        [
            "replay", "--input", f"jsonl:{dirty}", "--shards", "3", "--steps", "3",
            "--report-every", "1", "--verify",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified_bitwise_equal"] is True
    assert payload["workload"]["source"] == f"jsonl:{dirty}"
    expected = report.expected_counts()
    assert payload["adapter_quarantine"]["total"] == sum(expected.values())
    assert payload["adapter_quarantine"]["by_reason"]["unparseable"] == expected[
        "unparseable"
    ]
    assert payload["final_scored"] == 5
    # Rows screened at the adapter never reach a shard: the per-shard
    # ledgers the fleet aggregates for ops /stats stay empty.
    assert payload["stats"]["totals"]["quarantined"]["total"] == 0


@pytest.mark.parametrize("value", ["-1", "-0.001", "nan"])
def test_negative_clock_skew_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args(["replay", "--clock-skew", value])
    assert excinfo.value.code == 2
    assert "--clock-skew: must be a non-negative number" in capsys.readouterr().err
    assert cli.build_parser().parse_args(["replay", "--clock-skew", "0"]).clock_skew == 0.0

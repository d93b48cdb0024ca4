"""Pinned output of the corrupted-trace writer.

The digests cover the written file's bytes and the ``damages`` ledger for
every format at three seeds, so any change to the writer's target
selection (including its clock-skew eligibility scan) that moves a single
byte or damage record fails here.
"""

import hashlib

import pytest

from repro.adapters import trace_from_matcher
from repro.simulation.corruption import write_corrupted_trace
from repro.simulation.population import simulate_population
from repro.simulation.schemas import build_small_task

PINNED_DIGESTS = {
    ("jsonl", 0): "101a0ab416f54ec2605e6b4f1503a2730438c824109a91abb86005f80f975dc9",
    ("jsonl", 1): "349040248845eeeb17cc4d755ab91d9a1b3d6d95bbbac67946cf783aeb350714",
    ("jsonl", 7): "0b818f25eb4ee5b7ae4a55c62a604d51d7c82e74aa5b498347979af85920f8c8",
    ("csv", 0): "79870bb21cb42bfb7c53fcd0fa4f1c57b61ba30c6b80df8934f53d61a0e7db7d",
    ("csv", 1): "b8badbe9de7477913ca030d93384d45f2ab36e902ee5aa738b1664bddb6721b2",
    ("csv", 7): "f43dbc70e030644992991fbd8f13edfb2964f12bc990a91e4ae2d43543cc7d6b",
    ("oaei", 0): "8421fa3e600a71c12f8260577230b141791dfa65f9aff46997369a1bed157ac1",
    ("oaei", 1): "b842395c858c881a6ee04d380b7065832633019a313d7cdfef0e4aee1667bd90",
    ("oaei", 7): "ed809086c0d14ebbe4e237b6a6ec3fe45599be72866f9d920236120d4bc413d4",
}


@pytest.fixture(scope="module")
def traces():
    pair, reference = build_small_task(random_state=3)
    cohort = simulate_population(
        pair, reference, n_matchers=5, random_state=17, id_prefix="ext"
    )
    return [trace_from_matcher(matcher) for matcher in cohort]


@pytest.mark.parametrize("format_name,seed", sorted(PINNED_DIGESTS))
def test_bytes_and_damages_pinned(traces, tmp_path, format_name, seed):
    path = tmp_path / f"{format_name}-{seed}"
    report = write_corrupted_trace(traces, path, format_name, seed=seed, n_clock_skew=2)
    digest = hashlib.sha256(path.read_bytes())
    digest.update(repr(report.damages).encode())
    assert digest.hexdigest() == PINNED_DIGESTS[(format_name, seed)]
    assert sum(damage.reason == "clock_skew" for damage in report.damages) == 2


def test_too_few_skew_eligible_rows_rejected(traces, tmp_path):
    with pytest.raises(ValueError, match="clock_skew"):
        write_corrupted_trace(traces, tmp_path / "skew", "jsonl", clock_skew_tolerance=1e9)


def test_replacing_damage_leaves_a_row_in_front_of_every_skew_target(tmp_path):
    """Seed 2 once drew both rows before a skew target of one session as
    replacing damage, so the writer had no intact row to rewind behind."""
    from repro.adapters import OaeiDecisionFormat
    from repro.stream.quarantine import QuarantineLog

    pair, reference = build_small_task(random_state=3)
    cohort = simulate_population(pair, reference, n_matchers=3, random_state=23, id_prefix="rt")
    traces = [trace_from_matcher(matcher) for matcher in cohort]
    report = write_corrupted_trace(
        traces, tmp_path / "align.csv", "oaei", seed=2,
        n_unparseable=2, n_schema_invalid=3, n_clock_skew=2, n_duplicate=0,
    )
    log = QuarantineLog()
    OaeiDecisionFormat.read(report.path, quarantine=log)
    assert {reason: log.by_reason[reason] for reason in report.expected_counts()} == {
        "unparseable": 2, "schema_invalid": 3, "clock_skew": 2, "duplicate": 0,
    }

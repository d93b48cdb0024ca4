"""The three built-in formats: round-trips, screening, recovery policies."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.adapters import (
    MAX_DIMENSION,
    AdapterError,
    CsvEventFormat,
    JsonlTraceFormat,
    OaeiDecisionFormat,
    merge_traces,
    read_source,
    trace_fingerprint,
)
from repro.stream.quarantine import QuarantineLog


def events_only(trace):
    """The trace with its decision columns stripped (a CSV-shaped workload)."""
    return replace(
        trace,
        d_rows=np.zeros(0, dtype=np.int64),
        d_cols=np.zeros(0, dtype=np.int64),
        d_conf=np.zeros(0, dtype=np.float64),
        d_t=np.zeros(0, dtype=np.float64),
    )


def decisions_only(trace):
    """The trace with its event columns stripped (an OAEI-shaped workload)."""
    return replace(
        trace,
        x=np.zeros(0, dtype=np.float64),
        y=np.zeros(0, dtype=np.float64),
        codes=np.zeros(0, dtype=np.int64),
        t=np.zeros(0, dtype=np.float64),
    )


class TestJsonl:
    def test_full_fidelity_roundtrip(self, traces, tmp_path):
        path = JsonlTraceFormat.write(tmp_path / "trace.jsonl", traces)
        parsed = JsonlTraceFormat.read(path)
        assert trace_fingerprint(parsed) == trace_fingerprint(traces)

    def test_session_headers_carry_shape_and_screen(self, traces, tmp_path):
        path = JsonlTraceFormat.write(tmp_path / "trace.jsonl", traces)
        parsed = JsonlTraceFormat.read(path)
        for ours, theirs in zip(parsed, sorted(traces, key=lambda t: t.session_id)):
            assert ours.shape == theirs.shape
            assert ours.screen == theirs.screen

    @pytest.mark.parametrize(
        "line",
        ["{broken", "[1, 2, 3]", '{"kind": "telemetry", "session": "s"}'],
    )
    def test_undecodable_lines_quarantine_as_unparseable(self, line, tmp_path):
        target = tmp_path / "trace.jsonl"
        target.write_text(
            json.dumps(
                {"kind": "event", "session": "s", "t": 1.0, "x": 1.0, "y": 1.0,
                 "event": "move"}
            )
            + "\n" + line + "\n"
        )
        log = QuarantineLog()
        parsed = JsonlTraceFormat.read(target, quarantine=log)
        assert log.by_reason["unparseable"] == 1
        assert parsed[0].n_events == 1

    @pytest.mark.parametrize(
        "header",
        [
            {"shape": ["a", 2]},
            {"shape": [float("inf"), 2]},
            {"shape": [-3, 2]},
            {"shape": [2.5, 2]},
            {"shape": [True, 2]},
            {"screen": [None, 2]},
            {"screen": [768, float("nan")]},
            {"shape": [100000, 100000]},
            {"shape": [MAX_DIMENSION + 1, 2]},
            {"screen": [0, 0]},
            {"screen": [0, 1024]},
            {"screen": [768, 1e300]},
        ],
    )
    def test_hostile_header_dimensions_are_unparseable(self, header, tmp_path):
        target = tmp_path / "trace.jsonl"
        rows = [
            {"kind": "session", "session": "s", **header},
            {"kind": "decision", "session": "s", "t": 1.0, "row": 1, "col": 2,
             "confidence": 0.5},
        ]
        target.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
        log = QuarantineLog()
        parsed = JsonlTraceFormat.read(target, quarantine=log)
        assert log.by_reason["unparseable"] == 1
        assert parsed[0].n_decisions == 1
        assert parsed[0].to_matcher().matrix().shape == parsed[0].shape
        with pytest.raises(AdapterError, match="unparseable"):
            JsonlTraceFormat.read(target)

    def test_integral_header_dimensions_are_accepted(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        rows = [
            {"kind": "session", "session": "s", "shape": [3.0, 0],
             "screen": [1, MAX_DIMENSION]},
            {"kind": "decision", "session": "s", "t": 1.0, "row": 1, "col": 2,
             "confidence": 0.5},
        ]
        target.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
        log = QuarantineLog()
        parsed = JsonlTraceFormat.read(target, quarantine=log)
        assert log.total == 0
        assert parsed[0].shape == (3, 3) and parsed[0].screen == (1, MAX_DIMENSION)


class TestCsv:
    def test_event_roundtrip(self, traces, tmp_path):
        workload = [events_only(trace) for trace in traces]
        path = CsvEventFormat.write(tmp_path / "events.csv", workload)
        assert path.read_text().startswith("session_id,t,x,y,event\n")
        parsed = CsvEventFormat.read(path)
        assert trace_fingerprint(parsed) == trace_fingerprint(
            [replace(t, shape=(6, 6), screen=(768, 1024)) for t in workload]
        )

    def test_write_skips_decisions_for_an_events_only_format(self, traces, tmp_path):
        path = CsvEventFormat.write(tmp_path / "events.csv", traces)
        parsed = CsvEventFormat.read(path)
        assert all(trace.n_decisions == 0 for trace in parsed)
        assert sum(t.n_events for t in parsed) == sum(t.n_events for t in traces)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        target = tmp_path / "events.csv"
        target.write_text(
            "session_id,t,x,y,event\n# a comment\n\ns1,0.5,10.0,20.0,move\n"
        )
        parsed = CsvEventFormat.read(target)
        assert parsed[0].n_events == 1

    def test_wrong_field_count_is_unparseable(self, tmp_path):
        target = tmp_path / "events.csv"
        target.write_text("s1,0.5,10.0,20.0\n")
        log = QuarantineLog()
        assert CsvEventFormat.read(target, quarantine=log) == []
        assert log.by_reason["unparseable"] == 1

    def test_unknown_event_name_is_schema_invalid(self, tmp_path):
        target = tmp_path / "events.csv"
        target.write_text("s1,0.5,10.0,20.0,teleport\n")
        log = QuarantineLog()
        assert CsvEventFormat.read(target, quarantine=log) == []
        assert log.by_reason["schema_invalid"] == 1


class TestOaei:
    def test_decision_roundtrip(self, traces, tmp_path):
        workload = [decisions_only(trace) for trace in traces]
        path = OaeiDecisionFormat.write(tmp_path / "align.csv", workload)
        parsed = OaeiDecisionFormat.read(path, shape=workload[0].shape)
        reference = [
            replace(t, screen=(768, 1024))
            for t in sorted(workload, key=lambda t: t.session_id)
        ]
        assert trace_fingerprint(parsed) == trace_fingerprint(reference)

    def test_entity_labels_and_bare_integers(self, tmp_path):
        target = tmp_path / "align.csv"
        target.write_text(
            "matcher,source,target,relation,confidence,timestamp\n"
            "m1,a3,b4,=,0.8,1.0\n"
            "m1,5,2,=,0.7,2.0\n"
        )
        parsed = OaeiDecisionFormat.read(target)
        assert parsed[0].d_rows.tolist() == [3, 5]
        assert parsed[0].d_cols.tolist() == [4, 2]

    def test_unknown_entity_vocabulary_is_schema_invalid(self, tmp_path):
        target = tmp_path / "align.csv"
        target.write_text("m1,person,address,=,0.8,1.0\n")
        log = QuarantineLog()
        assert OaeiDecisionFormat.read(target, quarantine=log) == []
        assert log.by_reason["schema_invalid"] == 1

    def test_non_equivalence_relation_is_schema_invalid(self, tmp_path):
        target = tmp_path / "align.csv"
        target.write_text("m1,a1,b1,<,0.8,1.0\n")
        log = QuarantineLog()
        assert OaeiDecisionFormat.read(target, quarantine=log) == []
        assert log.by_reason["schema_invalid"] == 1


class TestComposition:
    def test_csv_events_merge_with_oaei_decisions(self, traces, tmp_path):
        events_path = CsvEventFormat.write(
            tmp_path / "events.csv", [events_only(t) for t in traces]
        )
        decisions_path = OaeiDecisionFormat.write(
            tmp_path / "align.csv", [decisions_only(t) for t in traces]
        )
        merged = merge_traces(
            CsvEventFormat.read(events_path),
            OaeiDecisionFormat.read(decisions_path),
        )
        by_id = {t.session_id: t for t in traces}
        for trace in merged:
            original = by_id[trace.session_id]
            np.testing.assert_array_equal(trace.t, original.t)
            np.testing.assert_array_equal(trace.d_conf, original.d_conf)
            np.testing.assert_array_equal(trace.d_rows, original.d_rows)

    def test_read_source_specs(self, traces, tmp_path):
        path = JsonlTraceFormat.write(tmp_path / "trace.jsonl", traces)
        parsed = read_source(f"jsonl:{path}")
        assert trace_fingerprint(parsed) == trace_fingerprint(traces)
        with pytest.raises(AdapterError):
            read_source(str(path))  # no format prefix


class TestRecoveryPolicies:
    def _dirty_decisions(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        rows = [
            {"kind": "decision", "session": "s1", "t": 1.0, "row": 0, "col": 0,
             "confidence": 0.5},
            {"kind": "decision", "session": "s1", "t": 2.0, "row": 1, "col": 1,
             "confidence": 1.8},  # out of range: repairable by clamping
            {"kind": "decision", "session": "s1", "t": 3.0, "row": 2, "col": 2,
             "confidence": "high"},  # type failure: never repairable
        ]
        target.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
        return target

    def test_skip_quarantines_both(self, tmp_path):
        log = QuarantineLog()
        parsed = JsonlTraceFormat.read(self._dirty_decisions(tmp_path), quarantine=log)
        assert parsed[0].n_decisions == 1
        assert log.by_reason["schema_invalid"] == 2

    def test_repair_clamps_the_range_violation(self, tmp_path):
        log = QuarantineLog()
        parsed = JsonlTraceFormat.read(
            self._dirty_decisions(tmp_path), quarantine=log, policy="repair"
        )
        assert parsed[0].n_decisions == 2
        assert parsed[0].d_conf.tolist() == [0.5, 1.0]
        assert log.by_reason["schema_invalid"] == 1  # only the type failure

    def test_abort_raises_even_with_a_log(self, tmp_path):
        log = QuarantineLog()
        with pytest.raises(AdapterError, match="schema_invalid"):
            JsonlTraceFormat.read(
                self._dirty_decisions(tmp_path), quarantine=log, policy="abort"
            )
        assert log.total == 0

    def test_strict_read_raises_on_first_bad_row(self, tmp_path):
        with pytest.raises(AdapterError):
            JsonlTraceFormat.read(self._dirty_decisions(tmp_path))


class TestStreamScreens:
    def test_clock_skew_beyond_tolerance_quarantined(self, tmp_path):
        target = tmp_path / "events.csv"
        target.write_text(
            "s1,10.0,1.0,1.0,move\n"
            "s1,9.5,1.0,1.0,move\n"   # 0.5s rewind: inside the tolerance
            "s1,4.0,1.0,1.0,move\n"   # 6s rewind: quarantined
            "s1,11.0,1.0,1.0,move\n"
        )
        log = QuarantineLog()
        parsed = CsvEventFormat.read(target, quarantine=log, clock_skew=1.0)
        assert log.by_reason["clock_skew"] == 1
        assert parsed[0].t.tolist() == [9.5, 10.0, 11.0]

    def test_exact_duplicates_quarantined_per_session(self, tmp_path):
        target = tmp_path / "events.csv"
        target.write_text(
            "s1,1.0,2.0,3.0,move\n"
            "s1,1.0,2.0,3.0,move\n"   # exact duplicate
            "s2,1.0,2.0,3.0,move\n"   # same payload, different session: kept
        )
        log = QuarantineLog()
        parsed = CsvEventFormat.read(target, quarantine=log)
        assert log.by_reason["duplicate"] == 1
        assert [t.session_id for t in parsed] == ["s1", "s2"]
        assert all(t.n_events == 1 for t in parsed)


def _write_lines(path, lines):
    path.write_text("\n".join(
        line if isinstance(line, str) else json.dumps(line) for line in lines
    ) + "\n")
    return path


def _event(**overrides):
    row = {"kind": "event", "session": "s", "t": 1.0, "x": 1.0, "y": 1.0, "event": "move"}
    row.update(overrides)
    return row


def _decision(**overrides):
    row = {"kind": "decision", "session": "s", "t": 1.0, "row": 1, "col": 2,
           "confidence": 0.5}
    row.update(overrides)
    return row


class TestHostileRows:
    """Rows that once escaped the read as untyped exceptions."""

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"kind": "event", "session": "s", "t": 1' + "0" * 400
             + ', "x": 1.0, "y": 1.0, "event": "move"}', "schema_invalid"),
            (_decision(row=10**30), "schema_invalid"),
            (_event(event=[1]), "schema_invalid"),
            (_event(session=[[[1]]], event={"a": [1]}), "schema_invalid"),
            ("[" * 200_000, "unparseable"),
            ('{"kind": "event", "session": "s", "t": ' + "1" * 5000 + "}", "unparseable"),
            ('{"kind": ' + "[" * 200_000, "unparseable"),
        ],
    )
    def test_one_typed_outcome_per_hostile_row(self, line, reason, tmp_path):
        target = _write_lines(tmp_path / "trace.jsonl", [_event(t=0.5), line])
        log = QuarantineLog()
        parsed = JsonlTraceFormat.read(target, quarantine=log)
        assert log.total == 1 and log.by_reason[reason] == 1
        assert sum(trace.n_events for trace in parsed) == 1
        with pytest.raises(AdapterError, match=f"line 2: .*quarantinable as '{reason}'"):
            JsonlTraceFormat.read(target)

    def test_decision_index_past_the_dimension_cap(self, tmp_path):
        target = _write_lines(
            tmp_path / "trace.jsonl",
            [_decision(t=0.5), _decision(row=200_000, col=MAX_DIMENSION - 1)],
        )
        log = QuarantineLog()
        parsed = JsonlTraceFormat.read(target, quarantine=log)
        assert log.by_reason["schema_invalid"] == 1
        assert "above maximum 4095" in log.records()[0].detail
        assert parsed[0].shape == (6, 6)
        # repair clamps an over-cap index like any other range violation.
        repaired = JsonlTraceFormat.read(target, quarantine=QuarantineLog(), policy="repair")
        assert repaired[0].d_rows.tolist() == [1, MAX_DIMENSION - 1]
        assert repaired[0].shape == (MAX_DIMENSION, MAX_DIMENSION)

    def test_oaei_entity_past_the_cap_or_not_decimal(self, tmp_path):
        target = tmp_path / "align.csv"
        target.write_text("m1,a4096,b1,=,0.8,1.0\nm1,a²,b1,=,0.8,2.0\nm1,--3,b1,=,0.8,3.0\n")
        log = QuarantineLog()
        assert OaeiDecisionFormat.read(target, quarantine=log) == []
        assert log.by_reason["schema_invalid"] == 3

    @pytest.mark.parametrize("clock_skew", [-1.0, -1e-9, float("nan")])
    def test_negative_clock_skew_is_rejected(self, clock_skew, tmp_path):
        target = _write_lines(tmp_path / "trace.jsonl", [_event()])
        with pytest.raises(ValueError, match="clock_skew must be non-negative"):
            JsonlTraceFormat.read(target, clock_skew=clock_skew)

    def test_non_text_file_is_an_adapter_error(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        target.write_bytes(b'{"kind": "event", "session": "\xff\xfe"}\n')
        with pytest.raises(AdapterError, match="not text"):
            JsonlTraceFormat.read(target, quarantine=QuarantineLog())


class TestExactnessTraps:
    """Behaviours the columnar read keeps exactly as the row-wise one had them."""

    def test_signed_zero_rows_are_duplicates(self, tmp_path):
        target = _write_lines(
            tmp_path / "trace.jsonl", [_event(x=0.0), _event(x=-0.0), _event(x=0.0)]
        )
        log = QuarantineLog()
        parsed = JsonlTraceFormat.read(target, quarantine=log)
        assert log.by_reason["duplicate"] == 2
        assert [record.detail for record in log.records()] == [
            "line 2: exact duplicate event row", "line 3: exact duplicate event row",
        ]
        assert parsed[0].x.tolist() == [0.0] and not np.signbit(parsed[0].x[0])

    def test_equal_timestamps_keep_file_order(self, tmp_path):
        target = _write_lines(
            tmp_path / "trace.jsonl",
            [_event(t=2.0, x=3.0), _event(t=2.0, x=1.0), _event(t=1.5, x=9.0),
             _event(t=2.0, x=2.0), _event(t=-0.0, x=4.0), _event(t=0.0, x=5.0)],
        )
        parsed = JsonlTraceFormat.read(target, clock_skew=5.0)
        assert parsed[0].x.tolist() == [4.0, 5.0, 9.0, 3.0, 1.0, 2.0]

    def test_bool_and_numeric_text_are_accepted_floats(self, tmp_path):
        target = _write_lines(
            tmp_path / "trace.jsonl", [_event(x=True, t=1.0), _event(x="3.5", t=2.0)]
        )
        parsed = JsonlTraceFormat.read(target)
        assert parsed[0].x.tolist() == [1.0, 3.5]

    def test_integral_float_in_an_int_field_is_schema_invalid(self, tmp_path):
        target = _write_lines(tmp_path / "trace.jsonl", [_decision(row=2.0)])
        log = QuarantineLog()
        assert JsonlTraceFormat.read(target, quarantine=log) == []
        assert log.records()[0].detail == "line 1: field 'row' value 2.0 is not a int"

    def test_record_without_a_session_joins_session_none(self, tmp_path):
        event = _event()
        del event["session"]
        target = _write_lines(tmp_path / "trace.jsonl", [event, _event(session="None", t=2.0)])
        parsed = JsonlTraceFormat.read(target)
        assert [trace.session_id for trace in parsed] == ["None"]
        assert parsed[0].n_events == 2

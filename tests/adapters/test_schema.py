"""Field/record schema validation, recovery policies, and the registry."""

import math

import pytest

from repro.adapters import (
    AdapterError,
    CsvEventFormat,
    FieldSpec,
    JsonlTraceFormat,
    OaeiDecisionFormat,
    RecordSchema,
    available_formats,
    get_format,
    parse_source,
)
from repro.adapters.base import TraceFormat, register


class TestFieldSpec:
    def test_float_happy_path(self):
        spec = FieldSpec("t", kind="float", minimum=0.0, maximum=10.0)
        assert spec.parse("2.5") == 2.5
        assert spec.parse(0.0) == 0.0
        assert spec.parse(10) == 10.0

    @pytest.mark.parametrize(
        "raw, fragment",
        [
            (None, "missing"),
            ("", "missing"),
            ("   ", "missing"),
            ("banana", "not a float"),
            (float("nan"), "not finite"),
            (float("inf"), "not finite"),
            ("-0.1", "below minimum"),
            ("10.1", "above maximum"),
            (10**400, "not a float"),
            ([[1]], "not a float"),
        ],
    )
    def test_float_rejections_name_the_field(self, raw, fragment):
        spec = FieldSpec("t", kind="float", minimum=0.0, maximum=10.0)
        with pytest.raises(ValueError, match="'t'") as excinfo:
            spec.parse(raw)
        assert fragment in str(excinfo.value)

    def test_int_parses_strings_but_not_floats(self):
        spec = FieldSpec("code", kind="int", minimum=0, maximum=3)
        assert spec.parse("2") == 2
        with pytest.raises(ValueError):
            spec.parse("2.5")
        with pytest.raises(ValueError):
            spec.parse("7")

    def test_str_choices(self):
        spec = FieldSpec("relation", kind="str", choices=("=",))
        assert spec.parse(" = ") == "="
        with pytest.raises(ValueError, match="'relation'"):
            spec.parse("<")

    def test_repair_clamps_range_only(self):
        spec = FieldSpec("conf", kind="float", minimum=0.0, maximum=1.0)
        assert spec.repair("1.7") == 1.0
        assert spec.repair("-0.2") == 0.0
        assert spec.repair("0.4") == 0.4
        with pytest.raises(ValueError):  # type failures are not repairable
            spec.repair("banana")
        with pytest.raises(ValueError):  # neither is non-finiteness
            spec.repair(math.nan)
        with pytest.raises(ValueError):  # nor unknown vocabulary
            FieldSpec("relation", kind="str", choices=("=",)).repair("<")

    def test_repair_preserves_int_kind(self):
        spec = FieldSpec("row", kind="int", minimum=0)
        repaired = spec.repair("-3")
        assert repaired == 0 and isinstance(repaired, int)


class TestRecordSchema:
    SCHEMA = RecordSchema(
        [
            FieldSpec("t", kind="float", minimum=0.0),
            FieldSpec("conf", kind="float", minimum=0.0, maximum=1.0),
        ]
    )

    def test_validate_converts_every_field(self):
        record = self.SCHEMA.validate({"t": "1.5", "conf": "0.25", "noise": "x"})
        assert record == {"t": 1.5, "conf": 0.25}  # unknown keys dropped

    def test_validate_repair_clamps(self):
        record = self.SCHEMA.validate({"t": "1.5", "conf": "2.0"}, repair=True)
        assert record == {"t": 1.5, "conf": 1.0}

    def test_optional_fields_may_be_absent(self):
        schema = RecordSchema(
            [FieldSpec("t"), FieldSpec("label", kind="str", required=False)]
        )
        assert schema.validate({"t": 1.0}) == {"t": 1.0}


class TestRegistry:
    def test_builtin_formats_registered(self):
        assert set(available_formats()) >= {"csv", "jsonl", "oaei"}
        assert get_format("csv") is CsvEventFormat
        assert get_format("jsonl") is JsonlTraceFormat
        assert get_format("oaei") is OaeiDecisionFormat

    def test_unknown_format_lists_alternatives(self):
        with pytest.raises(AdapterError, match="available"):
            get_format("xml")

    def test_register_requires_a_name(self):
        with pytest.raises(ValueError):

            @register
            class Nameless(TraceFormat):
                pass

    def test_parse_source(self):
        format_cls, path = parse_source("csv:/tmp/events.csv")
        assert format_cls is CsvEventFormat
        assert str(path) == "/tmp/events.csv"
        for bad in ("events.csv", "csv:", ":events.csv", ""):
            with pytest.raises(AdapterError, match="format"):
                parse_source(bad)

    def test_read_rejects_unknown_policy(self, tmp_path):
        target = tmp_path / "events.csv"
        target.write_text("session_id,t,x,y,event\n")
        with pytest.raises(ValueError, match="recovery policy"):
            CsvEventFormat.read(target, policy="improvise")

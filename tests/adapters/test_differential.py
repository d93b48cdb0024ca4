"""The columnar read equals the row-wise oracle, and hostile bytes stay typed.

Two properties over every built-in format:

* **Differential.** ``TraceFormat.read`` (columns, masks, one stable
  sort) equals ``tests/oracles/adapters.py::read_rowwise`` (one dict per
  line, ``RecordSchema.validate`` per row) on seeded corruptions of clean
  and hostile-persona cohorts, with hostile cells spliced in, under every
  recovery policy: the same traces, the same ``QuarantineLog`` records
  in order, and the same strict-mode ``AdapterError`` text.
* **Byte mutation.** A file with random bytes flipped, inserted or
  deleted either reads or raises ``AdapterError`` — never another
  exception — within a deadline, and again equals the oracle.
"""

from __future__ import annotations

import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adapters import (
    AdapterError,
    CsvEventFormat,
    JsonlTraceFormat,
    OaeiDecisionFormat,
    trace_from_matcher,
)
from repro.simulation import (
    build_small_task,
    simulate_hostile_population,
    simulate_population,
)
from repro.simulation.corruption import write_corrupted_trace
from repro.stream.quarantine import QuarantineLog

from tests.oracles.adapters import read_rowwise

FORMATS = (JsonlTraceFormat, CsvEventFormat, OaeiDecisionFormat)

#: JSON cell values that once crashed the read or sit on a lane boundary.
HOSTILE_JSON = (
    True, False, None, "3.5", " 2 ", 2.0, -0.0, 0.0, 10**30, -(10**30), 10**400,
    [1], {"a": [1]}, "", "nan", 1e308, float("inf"), -1.0, 4095, 4096, "move",
    "left", 7, "7", "=", "a3", " s ", "None",
)

#: CSV/OAEI cell texts with the same roles.
HOSTILE_TEXT = (
    "", " ", "nan", "inf", "-0.0", "0.0", "1e400", "2.0", "1_0", "true", "move",
    "left", "7", "-3", "a3", "b4", "a4095", "a4096", "a²", "--3", "=", "<",
    "٣", "1" * 50, "x y", "None",
)

_SETTINGS = settings(
    max_examples=150,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _cohorts():
    """A clean cohort and a hostile-persona cohort, built once."""
    if not hasattr(_cohorts, "value"):
        pair, reference = build_small_task(random_state=3)
        clean = simulate_population(
            pair, reference, n_matchers=3, random_state=23, id_prefix="rt"
        )
        hostile = simulate_hostile_population(pair, reference, 5, random_state=1)
        _cohorts.value = {
            "clean": [trace_from_matcher(m) for m in clean],
            "hostile": [trace_from_matcher(m) for m in hostile],
        }
    return _cohorts.value


def trace_key(trace):
    """Every byte of a trace (ids may hold lone surrogates: no ``encode``)."""
    columns = (trace.x, trace.y, trace.codes, trace.t,
               trace.d_rows, trace.d_cols, trace.d_conf, trace.d_t)
    return (trace.session_id, trace.shape, trace.screen,
            tuple((column.dtype.str, column.tobytes()) for column in columns))


def outcome(reader, path, *, policy, screened):
    """What one read produced: traces and ledger, or the error text."""
    log = QuarantineLog(max_records=1_000_000) if screened else None
    try:
        traces = reader(path, quarantine=log, policy=policy)
    except AdapterError as exc:
        return ("error", str(exc))
    ledger = None if log is None else ([repr(r) for r in log.records()], log.counts())
    return ("ok", [trace_key(trace) for trace in traces], ledger)


def assert_matches_oracle(format_cls, path, policy):
    for screened in (True, False):
        ours = outcome(format_cls.read, path, policy=policy, screened=screened)
        theirs = outcome(
            lambda p, **kw: read_rowwise(format_cls, p, **kw),
            path, policy=policy, screened=screened,
        )
        assert ours == theirs


def splice(format_cls, line, field_choice, value_choice):
    """``line`` with one cell replaced by a hostile value (``None``: undecodable)."""
    if format_cls is JsonlTraceFormat:
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if not isinstance(record, dict) or record.get("kind") == "session":
            return None
        keys = sorted(record)
        record[keys[field_choice % len(keys)]] = HOSTILE_JSON[value_choice % len(HOSTILE_JSON)]
        return json.dumps(record)
    cells = line.split(",")
    cells[field_choice % len(cells)] = HOSTILE_TEXT[value_choice % len(HOSTILE_TEXT)]
    return ",".join(cells)


@_SETTINGS
@given(
    format_index=st.integers(0, len(FORMATS) - 1),
    cohort=st.sampled_from(("clean", "hostile")),
    policy=st.sampled_from(("skip", "repair", "abort")),
    seed=st.integers(0, 2**16),
    damage=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 3)),
    edits=st.lists(
        st.tuples(st.sampled_from(("cell", "copy")), st.integers(0, 10**6),
                  st.integers(0, 10**6), st.integers(0, 10**6)),
        max_size=6,
    ),
)
def test_columnar_read_equals_rowwise_oracle(
    tmp_path_factory, format_index, cohort, policy, seed, damage, edits
):
    format_cls = FORMATS[format_index]
    path = tmp_path_factory.mktemp("diff") / f"trace.{format_cls.format_name}"
    n_unparseable, n_schema_invalid, n_clock_skew, n_duplicate = damage
    try:
        write_corrupted_trace(
            _cohorts()[cohort], path, format_cls.format_name, seed=seed,
            n_unparseable=n_unparseable, n_schema_invalid=n_schema_invalid,
            n_clock_skew=n_clock_skew, n_duplicate=n_duplicate,
        )
    except ValueError:  # too few eligible rows for the requested damage
        return
    lines = path.read_text().splitlines()
    for op, where, field_choice, value_choice in edits:
        index = where % len(lines)
        if op == "copy":  # a re-send later in the file: duplicate or rewound
            lines.insert(min(len(lines), index + 1 + field_choice % 7), lines[index])
            continue
        spliced = splice(format_cls, lines[index], field_choice, value_choice)
        if spliced is not None:
            lines[index] = spliced
    path.write_text("\n".join(lines) + "\n")
    assert_matches_oracle(format_cls, path, policy)


@pytest.mark.parametrize("format_cls", FORMATS, ids=lambda cls: cls.format_name)
@settings(max_examples=100, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(("flip", "insert", "delete")),
                  st.integers(0, 10**6), st.integers(0, 255)),
        min_size=1, max_size=12,
    ),
)
def test_byte_mutation_reads_or_raises_adapter_error(format_cls, mutations, tmp_path_factory):
    path = tmp_path_factory.mktemp("mut") / f"trace.{format_cls.format_name}"
    format_cls.write(path, _cohorts()["clean"][:1])
    data = bytearray(path.read_bytes())
    for op, where, byte in mutations:
        position = where % (len(data) + 1)
        if op == "insert":
            data.insert(position, byte)
        elif data and op == "flip":
            data[min(position, len(data) - 1)] = byte
        elif data:
            del data[min(position, len(data) - 1)]
    path.write_bytes(bytes(data))
    for policy in ("skip", "repair"):
        assert_matches_oracle(format_cls, path, policy)


def test_cohort_files_match_the_oracle_for_every_format(tmp_path):
    """The unmutated seeded corruptions, one fixed case per format and policy."""
    for format_cls in FORMATS:
        for cohort in ("clean", "hostile"):
            path = tmp_path / f"{cohort}.{format_cls.format_name}"
            write_corrupted_trace(_cohorts()[cohort], path, format_cls.format_name, seed=7)
            for policy in ("skip", "repair", "abort"):
                assert_matches_oracle(format_cls, path, policy)

"""Format-registry contract for ingesting external matcher traces.

Every score the system produced before this layer came from the clean
simulated cohort; real deployments ingest files written by other
people's instrumentation — mouse-event logs in CSV or JSONL, OAEI-style
alignment/decision files — and those files lie.  This module is the
trust boundary: one :class:`TraceFormat` subclass per source format
(the registry pattern), a shared columnar read driver with per-field
schema validation (:class:`FieldSpec` / :class:`RecordSchema`),
row-level quarantine through the stream layer's
:class:`~repro.stream.QuarantineLog`, a configurable recovery policy
(``skip`` / ``repair`` / ``abort``), and bounded retry with exponential
backoff on transient reads behind the ``adapter.read`` fault seam.

A format only decodes lines into raw per-kind column lists
(:meth:`TraceFormat.decode_block`); the base class validates whole
columns, screens them and assembles the traces.  Screening happens
entirely at parse time: the traces :meth:`TraceFormat.read` returns are
already stream-clean (survivor rows sorted stably by timestamp per
session, duplicate rows diverted), so downstream consumers —
:class:`~repro.stream.SessionManager`, the
:class:`~repro.shard.ShardFleet`, the cursor-based
:class:`~repro.shard.ReplayDriver` — never see a row the adapter
rejected.  That keeps redelivery cursors honest: a quarantined row never
occupies a position the driver is waiting to confirm.

The invariant the suite pins: for any seeded corruption of a clean
trace, screened reading quarantines exactly the damaged rows (exact
per-reason counters) and the survivors are bitwise equal to a strict
read of the clean trace.  The row-wise reader the columnar driver
replaced is the differential oracle in ``tests/oracles/adapters.py``.
"""

from __future__ import annotations

import argparse
import math
import reprlib
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.adapters.records import DEFAULT_SCREEN, SessionTrace
from repro.runtime.faults import InjectedFault, active_injector
from repro.stream.quarantine import QuarantineLog

#: Recovery policies for rows that fail schema validation.
RECOVERY_POLICIES = ("skip", "repair", "abort")

#: Default bounded-retry budget for transient read failures.
DEFAULT_MAX_READ_RETRIES = 3

#: Default base backoff (seconds) between read retries; doubles per attempt.
DEFAULT_BACKOFF = 0.01

#: Default tolerated backwards timestamp jump (seconds) within one session
#: before a row is quarantined as ``clock_skew``.
DEFAULT_CLOCK_SKEW = 1.0

#: Lines decoded per block.  Bounds the raw Python cells (decoded JSON
#: objects, split CSV rows) alive at once: each block is validated into
#: numpy columns before the next one is decoded.
DECODE_BLOCK_LINES = 4096

_INT64 = np.iinfo(np.int64)


class AdapterError(ValueError):
    """A source file (or its transport) could not be ingested.

    Raised on unreadable inputs, exhausted read retries, unknown formats,
    and — under the ``abort`` recovery policy — on the first bad row.
    """


class RecordParseError(ValueError):
    """One source row could not be decoded at all (``unparseable``)."""


def show(value: object) -> str:
    """A bounded ``repr`` for error details: hostile values can be huge or deep."""
    return reprlib.repr(value)


@dataclass(frozen=True)
class FieldSpec:
    """Schema for one field of a decoded record.

    ``kind`` is ``"float"``, ``"int"`` or ``"str"``.  Numeric kinds
    support inclusive ``minimum`` / ``maximum`` bounds and (for floats)
    a finiteness requirement; string kinds support an enumerated
    ``choices`` vocabulary.  :meth:`parse` raises ``ValueError`` with the
    offending field named; :meth:`repair` clamps out-of-range numerics
    into bounds for the ``repair`` recovery policy (type failures and
    unknown vocabulary are not repairable).  These scalar verdicts are
    the contract: the columnar read accepts a cell on its fast lane only
    where :meth:`parse` would accept it with the same value, and hands
    every other cell to :meth:`parse` / :meth:`repair`.
    """

    name: str
    kind: str = "float"
    required: bool = True
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[tuple[str, ...]] = None
    finite: bool = True

    def parse(self, raw: object) -> Union[float, int, str]:
        """The validated, converted value — or ``ValueError``."""
        if raw is None or (isinstance(raw, str) and not raw.strip()):
            raise ValueError(f"field {self.name!r} is missing")
        if self.kind == "str":
            value = self._text(raw)
            if self.choices is not None and value not in self.choices:
                raise ValueError(
                    f"field {self.name!r} value {show(value)} not in {self.choices}"
                )
            return value
        number = self._number(raw)
        if self.minimum is not None and number < self.minimum:
            raise ValueError(
                f"field {self.name!r} value {show(number)} below minimum {self.minimum}"
            )
        if self.maximum is not None and number > self.maximum:
            raise ValueError(
                f"field {self.name!r} value {show(number)} above maximum {self.maximum}"
            )
        return number

    def repair(self, raw: object) -> Union[float, int, str]:
        """The ``repair``-policy value: clamp numerics into bounds.

        Only range violations are repairable; anything :meth:`parse`
        rejects for type, finiteness or vocabulary reasons re-raises.
        """
        if self.kind == "str":
            return self.parse(raw)
        number = self._number(raw)
        if self.minimum is not None and number < self.minimum:
            number = type(number)(self.minimum)
        if self.maximum is not None and number > self.maximum:
            number = type(number)(self.maximum)
        return number

    def _text(self, raw: object) -> str:
        try:
            return str(raw).strip()
        except RecursionError:
            raise ValueError(
                f"field {self.name!r} value {show(raw)} is not a str"
            ) from None

    def _number(self, raw: object) -> Union[float, int]:
        """``raw`` converted to the numeric kind, finiteness checked."""
        try:
            if self.kind == "int":
                number: Union[int, float] = int(str(raw).strip())
            else:
                number = float(raw)
        except (TypeError, ValueError, OverflowError, RecursionError):
            raise ValueError(
                f"field {self.name!r} value {show(raw)} is not a {self.kind}"
            ) from None
        if self.kind == "float" and self.finite and not math.isfinite(number):
            raise ValueError(f"field {self.name!r} value {number!r} is not finite")
        return number


class RecordSchema:
    """An ordered bundle of :class:`FieldSpec` applied to a raw record."""

    def __init__(self, fields: Sequence[FieldSpec]) -> None:
        self.fields = tuple(fields)
        self.by_name = {spec.name: spec for spec in self.fields}

    def validate(self, raw: dict, *, repair: bool = False) -> dict:
        """The validated record — or ``ValueError`` naming the field."""
        validated: dict = {}
        for spec in self.fields:
            value = raw.get(spec.name)
            if value is None and not spec.required:
                continue
            validated[spec.name] = spec.repair(value) if repair else spec.parse(value)
        return validated


def _validate_policy(policy: str) -> str:
    if policy not in RECOVERY_POLICIES:
        raise ValueError(
            f"unknown recovery policy {policy!r}; expected one of {RECOVERY_POLICIES}"
        )
    return policy


def clock_skew_seconds(text: str) -> float:
    """The ``--clock-skew`` flag's type: a non-negative number of seconds.

    The columnar clock screen equals the row-wise one only for a
    non-negative tolerance (see :func:`_clock_rewinds`).
    """
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text!r}")
    return value


def session_text(raw: object) -> str:
    """A row's session id: its raw cell as stripped text (``""`` if none)."""
    try:
        return str(raw).strip()
    except (RecursionError, ValueError):  # nesting or integer-digit limits
        return ""


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

_REGISTRY: dict[str, type["TraceFormat"]] = {}


def register(cls: type["TraceFormat"]) -> type["TraceFormat"]:
    """Class decorator adding a format to the registry by ``format_name``."""
    name = cls.format_name
    if not name:
        raise ValueError(f"{cls.__name__} must define a non-empty format_name")
    _REGISTRY[name] = cls
    return cls


def get_format(name: str) -> type["TraceFormat"]:
    """The registered :class:`TraceFormat` subclass for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AdapterError(
            f"unknown trace format {name!r}; available: {available_formats()}"
        ) from None


def available_formats() -> tuple[str, ...]:
    """The registered format names, sorted."""
    return tuple(sorted(_REGISTRY))


def parse_source(source: str) -> tuple[type["TraceFormat"], Path]:
    """Split a ``fmt:path`` CLI source spec into (format class, path)."""
    name, separator, path = source.partition(":")
    if not separator or not name or not path:
        raise AdapterError(
            f"adapter source {source!r} must look like '<format>:<path>', "
            f"e.g. 'csv:events.csv'; available formats: {available_formats()}"
        )
    return get_format(name), Path(path)


# --------------------------------------------------------------------- #
# Decoded blocks and validated columns
# --------------------------------------------------------------------- #


@dataclass
class RawRows:
    """One kind's decoded rows of a block, as raw (unvalidated) cells.

    ``numbers`` are 1-based line numbers, ``sessions`` the raw session
    cells and ``cells`` one list per schema field name, all aligned.
    """

    numbers: list[int]
    sessions: list[object]
    cells: dict[str, list[object]]


@dataclass
class DecodedBlock:
    """What :meth:`TraceFormat.decode_block` made of a block of lines."""

    rows: dict[str, RawRows] = field(default_factory=dict)
    #: ``(line number, detail)`` for every line that did not decode.
    unparseable: list[tuple[int, str]] = field(default_factory=list)


def _float_cells(cells: list) -> tuple[np.ndarray, np.ndarray]:
    """Fast-lane values of a float column and the mask of cells it took.

    The lane takes exactly the types the writers emit — ``float``
    (JSONL) and decimal text (CSV, OAEI) — converted with the same
    ``float()`` :meth:`FieldSpec.parse` calls.
    """
    n = len(cells)
    types = set(map(type, cells))
    if types <= {float}:
        return np.array(cells, dtype=np.float64), np.ones(n, dtype=bool)
    if types == {str}:
        try:
            return np.array(list(map(float, cells)), dtype=np.float64), np.ones(n, bool)
        except ValueError:
            pass
    values = np.zeros(n, dtype=np.float64)
    taken = np.zeros(n, dtype=bool)
    for index, cell in enumerate(cells):
        if type(cell) is float:
            values[index] = cell
        elif type(cell) is str:
            try:
                values[index] = float(cell)
            except ValueError:
                continue
        else:
            continue
        taken[index] = True
    return values, taken


def _int_cells(cells: list) -> tuple[np.ndarray, np.ndarray]:
    """Fast-lane values of an int column: exact ``int`` cells within int64."""
    n = len(cells)
    if set(map(type, cells)) <= {int}:
        try:
            return np.array(cells, dtype=np.int64), np.ones(n, dtype=bool)
        except OverflowError:
            pass
    values = np.zeros(n, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    for index, cell in enumerate(cells):
        if type(cell) is int and _INT64.min <= cell <= _INT64.max:
            values[index] = cell
            taken[index] = True
    return values, taken


def _str_cells(spec: FieldSpec, cells: list) -> tuple[np.ndarray, np.ndarray]:
    """Fast-lane values of a str column: stripped text in the vocabulary."""
    values = np.array(
        [cell.strip() if type(cell) is str else "" for cell in cells], dtype=object
    )
    taken = np.array(
        [bool(value) and (spec.choices is None or value in spec.choices)
         for value in values],
        dtype=bool,
    )
    return values, taken


def _fast_column(spec: FieldSpec, cells: list) -> tuple[np.ndarray, np.ndarray]:
    """A field's fast-lane values and the mask of cells that pass every check.

    A cell the mask clears is one :meth:`FieldSpec.parse` accepts with
    the same value; anything else goes to the scalar verdict.
    """
    if spec.kind == "str":
        return _str_cells(spec, cells)
    values, ok = _float_cells(cells) if spec.kind == "float" else _int_cells(cells)
    if spec.kind == "float" and spec.finite:
        ok &= np.isfinite(values)
    if spec.minimum is not None:
        ok &= values >= spec.minimum
    if spec.maximum is not None:
        ok &= values <= spec.maximum
    return values, ok


@dataclass
class _Columns:
    """One kind's validated rows: line numbers, session codes, field columns.

    ``valid`` marks the rows that passed the session and schema checks;
    the field values of the other rows are meaningless.
    """

    numbers: np.ndarray
    sessions: np.ndarray
    valid: np.ndarray
    fields: dict[str, np.ndarray]

    @classmethod
    def concatenate(cls, parts: list["_Columns"]) -> "_Columns":
        return cls(
            np.concatenate([part.numbers for part in parts]),
            np.concatenate([part.sessions for part in parts]),
            np.concatenate([part.valid for part in parts]),
            {
                name: np.concatenate([part.fields[name] for part in parts])
                for name in parts[0].fields
            },
        )

    def payload(self, index: int) -> tuple[float, float, int, float]:
        """``(x, y, code, t)`` of one row, as a quarantine record carries it."""
        nan = float("nan")
        fields = self.fields
        x = float(fields["x"][index]) if "x" in fields else nan
        y = float(fields["y"][index]) if "y" in fields else nan
        code_field = fields.get("code", fields.get("row"))
        code = int(code_field[index]) if code_field is not None else -1
        return x, y, code, float(fields["t"][index])


class _Sessions:
    """Session ids interned to integer codes across blocks (-1: no id)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._by_name: dict[str, int] = {}
        self._by_raw: dict[str, int] = {}  # raw str cell -> code

    def codes(self, cells: list) -> np.ndarray:
        """Each cell's code, interning new ids in first-appearance order."""
        known = self._by_raw
        intern = self._intern
        return np.array(
            [
                known[cell] if type(cell) is str and cell in known else intern(cell)
                for cell in cells
            ],
            dtype=np.int64,
        )

    def _intern(self, cell: object) -> int:
        name = session_text(cell)
        code = self._by_name.setdefault(name, len(self.names)) if name else -1
        if code == len(self.names):
            self.names.append(name)
        if type(cell) is str:
            self._by_raw[cell] = code
        return code


#: One quarantine entry: line number, reason, detail, session id, payload.
_Entry = tuple[int, str, str, str, tuple[float, float, int, float]]

_NO_PAYLOAD = (float("nan"), float("nan"), -1, float("nan"))


def _validate_block(
    rows: RawRows,
    schema: RecordSchema,
    sessions: _Sessions,
    *,
    repair: bool,
    entries: list[_Entry],
) -> _Columns:
    """Validate one block's raw rows as columns; reject rows into ``entries``.

    Rows without a session id are ``unparseable``.  Every other row
    either clears every field's fast-lane mask or is re-judged by the
    schema's scalar verdict (with the ``repair`` retry), which either
    supplies its values or names the field it fails.
    """
    numbers = np.asarray(rows.numbers, dtype=np.int64)
    codes = sessions.codes(rows.sessions)
    fields: dict[str, np.ndarray] = {}
    ok = codes >= 0
    for spec in schema.fields:
        values, taken = _fast_column(spec, rows.cells[spec.name])
        fields[spec.name] = values
        ok &= taken
    valid = ok.copy()
    for index in np.flatnonzero(~ok).tolist():
        number = int(numbers[index])
        if codes[index] < 0:
            entries.append((number, "unparseable",
                            f"line {number}: record without a session id", "",
                            _NO_PAYLOAD))
            continue
        raw = {spec.name: rows.cells[spec.name][index] for spec in schema.fields}
        try:
            record = schema.validate(raw)
        except ValueError as exc:
            record = None
            if repair:
                try:
                    record = schema.validate(raw, repair=True)
                except ValueError:
                    pass
            if record is None:
                entries.append((number, "schema_invalid", f"line {number}: {exc}",
                                sessions.names[codes[index]], _NO_PAYLOAD))
                continue
        for name, value in record.items():
            fields[name][index] = value
        valid[index] = True
    return _Columns(numbers, codes, valid, fields)


def _clock_rewinds(columns: _Columns, clock_skew: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose timestamp rewinds past ``clock_skew``, and each row's session max.

    The row-wise screen keeps a running maximum per session and skips
    rows it rejects.  A rejected row lies below that maximum, so for
    ``clock_skew >= 0`` folding it in changes nothing: the screen is the
    exclusive cumulative maximum over the schema-valid rows of each
    session, in file order.
    """
    t = columns.fields["t"]
    latest = np.full(t.size, -np.inf)
    rows = np.flatnonzero(columns.valid)
    rows = rows[np.argsort(columns.sessions[rows], kind="stable")]
    codes = columns.sessions[rows]
    bounds = np.flatnonzero(np.diff(codes)) + 1
    for group in np.split(rows, bounds):
        if group.size > 1:
            latest[group[1:]] = np.maximum.accumulate(t[group[:-1]])
    rewound = np.zeros(t.size, dtype=bool)
    rewound[rows] = latest[rows] - t[rows] > clock_skew
    return rewound, latest


def _duplicates(columns: _Columns, candidates: np.ndarray) -> np.ndarray:
    """Candidate rows whose (session, values) equal an earlier candidate's.

    Values compare as numbers, so ``-0.0`` repeats ``0.0``; the first
    occurrence in file order is the one kept.
    """
    rows = np.flatnonzero(candidates)
    keys = [columns.sessions[rows]]
    for values in columns.fields.values():
        column = values[rows]
        if column.dtype == object:
            column = np.unique(column.astype(str), return_inverse=True)[1]
        elif column.dtype.kind == "f":
            column = column + 0.0  # -0.0 -> 0.0, so equal values sort together
        keys.append(column)
    order = np.lexsort(keys[::-1])  # stable: ties stay in file order
    same = np.ones(max(rows.size - 1, 0), dtype=bool)
    for key in keys:
        ordered = key[order]
        same &= ordered[1:] == ordered[:-1]
    duplicate = np.zeros(candidates.size, dtype=bool)
    duplicate[rows[order[1:][same]]] = True
    return duplicate


# --------------------------------------------------------------------- #
# The shared driver
# --------------------------------------------------------------------- #


class TraceFormat:
    """Contract one source format implements; the registry's unit.

    Subclasses define the class identity (``format_name``,
    ``description``), the record schemas, and these hooks:

    * :meth:`decode_block` — a block of raw lines to per-kind raw column
      lists (:class:`RawRows`) plus the lines that did not decode at all;
      it also records header state (shape/screen per session id).
    * :meth:`session_defaults` — per-file header state for a session,
      consulted when assembling traces.
    * :meth:`encode_event` / :meth:`encode_decision` — one record back to
      its line form (used by :meth:`write` and by the corruption writer,
      so damage is injected in the format's own vocabulary).

    The base class owns everything else: the retrying line reader behind
    the ``adapter.read`` fault seam, column validation with the recovery
    policy, clock-skew and duplicate screening, quarantine accounting,
    and trace assembly.
    """

    #: Registry key (``csv``, ``jsonl``, ``oaei``); set by subclasses.
    format_name: str = ""
    #: One-line human description, shown in CLI errors.
    description: str = ""
    #: Schemas, set by subclasses (either may be ``None`` for formats
    #: that carry only events or only decisions).
    event_schema: Optional[RecordSchema] = None
    decision_schema: Optional[RecordSchema] = None

    # ---------------- subclass hooks ---------------- #

    @classmethod
    def decode_block(
        cls, lines: Sequence[str], first_number: int, state: dict
    ) -> DecodedBlock:  # pragma: no cover - abstract
        """Decode ``lines`` (the first is line ``first_number``) into raw columns.

        ``state`` is per-file scratch for headers, shared across blocks.
        """
        raise NotImplementedError

    @classmethod
    def session_defaults(cls, state: dict, session_id: str) -> dict:
        """Header-derived defaults (``shape``, ``screen``) for a session."""
        return {}

    @classmethod
    def encode_event(cls, session_id: str, record: dict) -> str:  # pragma: no cover
        raise NotImplementedError

    @classmethod
    def encode_decision(cls, session_id: str, record: dict) -> str:  # pragma: no cover
        raise NotImplementedError

    @classmethod
    def header_lines(cls, traces: Sequence[SessionTrace]) -> list[str]:
        """Leading lines for :meth:`write` (column header, session headers)."""
        return []

    # ---------------- the shared driver ---------------- #

    @classmethod
    def read_lines(
        cls,
        path: Union[str, Path],
        *,
        max_read_retries: int = DEFAULT_MAX_READ_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        sleep: Callable[[float], None] = _time.sleep,
    ) -> list[str]:
        """The file's lines, retrying transient failures with backoff.

        Each attempt consults the ``adapter.read`` fault seam (keyed on
        the file name, with an explicit attempt counter so ``times=``
        plans fire per attempt, not per call).  ``OSError`` and injected
        faults alike are retried up to ``max_read_retries`` extra
        attempts with exponential backoff; an exhausted budget surfaces
        as :class:`AdapterError`.  A file that is not text in the
        locale's encoding is not transient: it raises at once.
        """
        path = Path(path)
        injector = active_injector()
        attempts = int(max_read_retries) + 1
        failure: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                if injector is not None:
                    injector.check("adapter.read", key=path.name, attempt=attempt)
                return path.read_text().splitlines()
            except UnicodeDecodeError as exc:
                raise AdapterError(f"{path} is not text: {exc}") from None
            except (OSError, InjectedFault) as exc:
                failure = exc
                if attempt + 1 < attempts:
                    sleep(float(backoff) * (2.0**attempt))
        raise AdapterError(
            f"could not read {path} after {attempts} attempts: {failure}"
        ) from failure

    @classmethod
    def read(
        cls,
        path: Union[str, Path],
        *,
        quarantine: Optional[QuarantineLog] = None,
        policy: str = "skip",
        shape: tuple[int, int] = (6, 6),
        screen: tuple[int, int] = DEFAULT_SCREEN,
        clock_skew: float = DEFAULT_CLOCK_SKEW,
        max_read_retries: int = DEFAULT_MAX_READ_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        sleep: Callable[[float], None] = _time.sleep,
    ) -> list[SessionTrace]:
        """Parse a source file into clean, per-session traces.

        With a ``quarantine`` log the read is *screened*: rows that fail
        to decode (``unparseable``), fail their schema
        (``schema_invalid`` — unless the ``repair`` policy salvages
        them), rewind the session clock beyond ``clock_skew`` seconds
        (``clock_skew``), or repeat the values of an earlier row of the
        same session and kind (``duplicate``) are diverted into the log
        in line order with exact per-reason counters, and the survivors
        are returned.  Without one the read is *strict*: the first bad
        row raises :class:`AdapterError` (the ``abort`` policy forces
        the same even when a log is attached).  ``clock_skew`` must be
        non-negative.

        Survivor events are sorted stably by timestamp per session, so
        the returned traces are ready for strict downstream ingest.
        """
        policy = _validate_policy(policy)
        if not clock_skew >= 0:
            raise ValueError(f"clock_skew must be non-negative, got {clock_skew!r}")
        strict = quarantine is None or policy == "abort"
        lines = cls.read_lines(
            path, max_read_retries=max_read_retries, backoff=backoff, sleep=sleep
        )
        schemas = {
            kind: schema
            for kind, schema in (("event", cls.event_schema),
                                 ("decision", cls.decision_schema))
            if schema is not None
        }
        state: dict = {}
        sessions = _Sessions()
        entries: list[_Entry] = []
        parts: dict[str, list[_Columns]] = {kind: [] for kind in schemas}
        for start in range(0, len(lines), DECODE_BLOCK_LINES):
            block = cls.decode_block(
                lines[start : start + DECODE_BLOCK_LINES], start + 1, state
            )
            entries.extend(
                (number, "unparseable", f"line {number}: {detail}", "", _NO_PAYLOAD)
                for number, detail in block.unparseable
            )
            for kind, rows in block.rows.items():
                parts[kind].append(
                    _validate_block(rows, schemas[kind], sessions,
                                    repair=policy == "repair", entries=entries)
                )
        del lines

        survivors: dict[str, _Columns] = {}
        for kind, blocks in parts.items():
            if not blocks:
                continue
            columns = _Columns.concatenate(blocks)
            rewound, latest = _clock_rewinds(columns, float(clock_skew))
            duplicate = _duplicates(columns, columns.valid & ~rewound)
            for index in np.flatnonzero(rewound).tolist():
                number = int(columns.numbers[index])
                timestamp = float(columns.fields["t"][index])
                maximum = float(latest[index])
                entries.append((
                    number, "clock_skew",
                    f"line {number}: timestamp {timestamp} rewinds "
                    f"{maximum - timestamp:.3f}s behind session maximum {maximum}",
                    sessions.names[columns.sessions[index]], columns.payload(index),
                ))
            for index in np.flatnonzero(duplicate).tolist():
                number = int(columns.numbers[index])
                entries.append((
                    number, "duplicate", f"line {number}: exact duplicate {kind} row",
                    sessions.names[columns.sessions[index]], columns.payload(index),
                ))
            columns.valid &= ~(rewound | duplicate)
            survivors[kind] = columns

        entries.sort(key=lambda entry: entry[0])
        if strict and entries:
            _, reason, detail, _, _ = entries[0]
            raise AdapterError(f"{path}: {detail} (row quarantinable as {reason!r})")
        for _, reason, detail, session_id, (x, y, code, t) in entries:
            quarantine.add(
                session_id=session_id or "<unknown>", reason=reason, detail=detail,
                x=x, y=y, code=code, t=t,
            )
        return _assemble_traces(
            survivors, sessions.names,
            lambda session_id: cls.session_defaults(state, session_id),
            shape=shape, screen=screen,
        )

    @classmethod
    def write(cls, path: Union[str, Path], traces: Sequence[SessionTrace]) -> Path:
        """Emit traces in this format (the round-trip partner of read)."""
        path = Path(path)
        lines = cls.header_lines(traces)
        for trace in traces:
            for kind, payload in iter_trace_records(trace):
                if kind == "event" and cls.event_schema is not None:
                    lines.append(cls.encode_event(trace.session_id, payload))
                elif kind == "decision" and cls.decision_schema is not None:
                    lines.append(cls.encode_decision(trace.session_id, payload))
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path


def iter_trace_records(trace: SessionTrace) -> Iterable[tuple[str, dict]]:
    """A trace's rows as ``(kind, record)`` pairs, merged by timestamp.

    Events and decisions are interleaved in timestamp order (events
    first on ties), so written files read back in source order and the
    corruption writer can damage a realistic mixed stream.
    """
    records: list[tuple[float, int, str, dict]] = []
    for index in range(trace.n_events):
        records.append(
            (
                float(trace.t[index]),
                0,
                "event",
                {
                    "x": float(trace.x[index]),
                    "y": float(trace.y[index]),
                    "code": int(trace.codes[index]),
                    "t": float(trace.t[index]),
                },
            )
        )
    for index in range(trace.n_decisions):
        records.append(
            (
                float(trace.d_t[index]),
                1,
                "decision",
                {
                    "row": int(trace.d_rows[index]),
                    "col": int(trace.d_cols[index]),
                    "conf": float(trace.d_conf[index]),
                    "t": float(trace.d_t[index]),
                },
            )
        )
    records.sort(key=lambda item: (item[0], item[1]))
    for _, _, kind, payload in records:
        yield kind, payload


def _assemble_traces(
    survivors: dict[str, _Columns],
    names: list[str],
    defaults: Callable[[str], dict],
    *,
    shape: tuple[int, int],
    screen: tuple[int, int],
) -> list[SessionTrace]:
    """Survivor columns to one :class:`SessionTrace` per session, by id.

    Each kind is ordered with one stable sort by (session, t), so rows
    with equal timestamps keep their file order, then split per session.
    """
    present = np.zeros(len(names), dtype=bool)
    for columns in survivors.values():
        present[columns.sessions[columns.valid]] = True
    ordered = sorted(np.flatnonzero(present).tolist(), key=names.__getitem__)
    rank = np.zeros(len(names), dtype=np.int64)
    rank[ordered] = np.arange(len(ordered))
    runs: dict[str, dict[str, list[np.ndarray]]] = {}
    for kind, columns in survivors.items():
        rows = np.flatnonzero(columns.valid)
        ranks = rank[columns.sessions[rows]]
        order = rows[np.lexsort((columns.fields["t"][rows], ranks))]
        bounds = np.cumsum(np.bincount(ranks, minlength=len(ordered)))[:-1]
        runs[kind] = {
            name: np.split(values[order], bounds)
            for name, values in columns.fields.items()
        }

    traces: list[SessionTrace] = []
    for position, code in enumerate(ordered):

        def run(kind: str, name: str, dtype: type) -> np.ndarray:
            return runs[kind][name][position] if kind in runs else np.zeros(0, dtype)

        d_rows, d_cols = run("decision", "row", np.int64), run("decision", "col", np.int64)
        header = defaults(names[code])
        rows, cols = header.get("shape", shape)
        session_screen = header.get("screen", screen)
        if d_rows.size:
            rows = max(int(rows), int(d_rows.max()) + 1)
            cols = max(int(cols), int(d_cols.max()) + 1)
        traces.append(
            SessionTrace(
                session_id=names[code],
                shape=(int(rows), int(cols)),
                x=run("event", "x", np.float64),
                y=run("event", "y", np.float64),
                codes=run("event", "code", np.int64),
                t=run("event", "t", np.float64),
                d_rows=d_rows,
                d_cols=d_cols,
                d_conf=run("decision", "conf", np.float64),
                d_t=run("decision", "t", np.float64),
                screen=(int(session_screen[0]), int(session_screen[1])),
            )
        )
    return traces


def read_source(
    source: str,
    *,
    quarantine: Optional[QuarantineLog] = None,
    policy: str = "skip",
    **kwargs,
) -> list[SessionTrace]:
    """Read a ``fmt:path`` CLI source spec (the CLIs' entry point)."""
    format_cls, path = parse_source(source)
    return format_cls.read(path, quarantine=quarantine, policy=policy, **kwargs)


__all__ = [
    "AdapterError",
    "DECODE_BLOCK_LINES",
    "DEFAULT_BACKOFF",
    "DEFAULT_CLOCK_SKEW",
    "DEFAULT_MAX_READ_RETRIES",
    "DecodedBlock",
    "FieldSpec",
    "RECOVERY_POLICIES",
    "RawRows",
    "RecordParseError",
    "RecordSchema",
    "TraceFormat",
    "available_formats",
    "clock_skew_seconds",
    "get_format",
    "iter_trace_records",
    "parse_source",
    "read_source",
    "register",
    "session_text",
    "show",
]

"""Row-wise oracle for the columnar screened adapter read.

``read_rowwise`` is the per-line, per-row reader that
``TraceFormat.read`` replaced: each line is parsed into one raw dict,
validated by ``RecordSchema.validate``, screened against a running
per-session clock and a set of seen payloads, and the survivors are
assembled with a Python ``sorted`` per session.  The columnar read must
equal it exactly: the same traces (fingerprints and shapes), the same
``QuarantineLog`` records in the same order, and the same strict-mode
``AdapterError`` text.

The line parsers here are the per-line ``parse_line`` hooks of the three
formats.  They share only the scalar rules with production — the field
verdicts (``FieldSpec``), header dimensions, the JSON decode and the
OAEI entity labels — so what is compared is the column machinery.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.adapters import (
    AdapterError,
    CsvEventFormat,
    DEFAULT_CLOCK_SKEW,
    DEFAULT_SCREEN,
    JsonlTraceFormat,
    OaeiDecisionFormat,
    RecordParseError,
    SessionTrace,
)
from repro.adapters.base import session_text, show
from repro.adapters.jsonl_events import _header_pair, decode_json, event_code
from repro.adapters.oaei_decisions import entity_index
from repro.matching.events import EVENT_CODES
from repro.stream.quarantine import QuarantineLog

_CSV_HEADER = "session_id,t,x,y,event"
_OAEI_HEADER = "matcher,source,target,relation,confidence,timestamp"


def parse_jsonl_line(line: str, state: dict) -> Optional[tuple[str, dict]]:
    text = line.strip()
    if not text:
        return None
    obj = decode_json(text)
    if not isinstance(obj, dict):
        raise RecordParseError("JSON record is not an object")
    kind = obj.get("kind")
    if kind == "session":
        session_id = session_text(obj.get("session", ""))
        if session_id:
            headers = state.setdefault("headers", {})
            pairs = {key: _header_pair(obj, key) for key in ("shape", "screen")}
            headers[session_id] = {
                key: pair for key, pair in pairs.items() if pair is not None
            }
        return None
    if kind == "event":
        return "event", {
            "session": obj.get("session"),
            "t": obj.get("t"),
            "x": obj.get("x"),
            "y": obj.get("y"),
            "code": event_code(obj.get("event")),
        }
    if kind == "decision":
        return "decision", {
            "session": obj.get("session"),
            "t": obj.get("t"),
            "row": obj.get("row"),
            "col": obj.get("col"),
            "conf": obj.get("confidence"),
        }
    raise RecordParseError(f"unknown record kind {show(kind)}")


def parse_csv_line(line: str, state: dict) -> Optional[tuple[str, dict]]:
    text = line.strip()
    if not text or text.startswith("#") or text == _CSV_HEADER:
        return None
    parts = text.split(",")
    if len(parts) != 5:
        raise RecordParseError(f"expected 5 comma-separated fields, got {len(parts)}")
    session_id, t, x, y, event = (part.strip() for part in parts)
    code = EVENT_CODES.get(event, event)
    return "event", {"session": session_id, "t": t, "x": x, "y": y, "code": code}


def parse_oaei_line(line: str, state: dict) -> Optional[tuple[str, dict]]:
    text = line.strip()
    if not text or text.startswith("#") or text == _OAEI_HEADER:
        return None
    parts = text.split(",")
    if len(parts) != 6:
        raise RecordParseError(f"expected 6 comma-separated fields, got {len(parts)}")
    matcher, source, target, relation, confidence, timestamp = (
        part.strip() for part in parts
    )
    return "decision", {
        "session": matcher,
        "row": entity_index(source, "a"),
        "col": entity_index(target, "b"),
        "relation": relation,
        "conf": confidence,
        "t": timestamp,
    }


PARSERS = {
    JsonlTraceFormat: parse_jsonl_line,
    CsvEventFormat: parse_csv_line,
    OaeiDecisionFormat: parse_oaei_line,
}


def read_rowwise(
    format_cls,
    path: Union[str, Path],
    *,
    quarantine: Optional[QuarantineLog] = None,
    policy: str = "skip",
    shape: tuple[int, int] = (6, 6),
    screen: tuple[int, int] = DEFAULT_SCREEN,
    clock_skew: float = DEFAULT_CLOCK_SKEW,
) -> list[SessionTrace]:
    """The row-wise screened read of ``path`` in ``format_cls``."""
    parse_line = PARSERS[format_cls]
    strict = quarantine is None or policy == "abort"
    lines = format_cls.read_lines(path, sleep=lambda seconds: None)
    state: dict = {}
    sessions: dict[str, dict[str, list[dict]]] = {}
    clocks: dict[str, dict[str, float]] = {}
    seen: dict[str, dict[str, set]] = {}

    def divert(reason: str, detail: str, session_id: str, record: dict) -> None:
        if strict:
            raise AdapterError(f"{path}: {detail} (row quarantinable as {reason!r})")
        quarantine.add(
            session_id=session_id or "<unknown>",
            reason=reason,
            detail=detail,
            x=float(record.get("x", float("nan"))),
            y=float(record.get("y", float("nan"))),
            code=int(record.get("code", record.get("row", -1))),
            t=float(record.get("t", float("nan"))),
        )

    for number, line in enumerate(lines, start=1):
        try:
            parsed = parse_line(line, state)
        except RecordParseError as exc:
            divert("unparseable", f"line {number}: {exc}", "", {})
            continue
        if parsed is None:
            continue
        kind, raw = parsed
        session_id = session_text(raw.get("session", ""))
        if not session_id:
            divert("unparseable", f"line {number}: record without a session id", "", {})
            continue
        schema = format_cls.event_schema if kind == "event" else format_cls.decision_schema
        try:
            record = schema.validate(raw)
        except ValueError as exc:
            if policy == "repair":
                try:
                    record = schema.validate(raw, repair=True)
                except ValueError:
                    divert("schema_invalid", f"line {number}: {exc}", session_id, {})
                    continue
            else:
                divert("schema_invalid", f"line {number}: {exc}", session_id, {})
                continue
        timestamp = float(record["t"])
        running = clocks.setdefault(session_id, {})
        latest = running.get(kind, float("-inf"))
        if latest - timestamp > float(clock_skew):
            divert(
                "clock_skew",
                f"line {number}: timestamp {timestamp} rewinds "
                f"{latest - timestamp:.3f}s behind session maximum {latest}",
                session_id,
                record,
            )
            continue
        running[kind] = max(latest, timestamp)
        payload = tuple(sorted(record.items()))
        kind_seen = seen.setdefault(session_id, {}).setdefault(kind, set())
        if payload in kind_seen:
            divert("duplicate", f"line {number}: exact duplicate {kind} row",
                   session_id, record)
            continue
        kind_seen.add(payload)
        bucket = sessions.setdefault(session_id, {"events": [], "decisions": []})
        bucket["events" if kind == "event" else "decisions"].append(record)

    traces = []
    for session_id in sorted(sessions):
        bucket = sessions[session_id]
        defaults = format_cls.session_defaults(state, session_id)
        traces.append(
            _assemble_trace(
                session_id,
                bucket["events"],
                bucket["decisions"],
                shape=defaults.get("shape", shape),
                screen=defaults.get("screen", screen),
            )
        )
    return traces


def _assemble_trace(session_id, events, decisions, *, shape, screen) -> SessionTrace:
    event_order = sorted(range(len(events)), key=lambda i: events[i]["t"])
    decision_order = sorted(range(len(decisions)), key=lambda i: decisions[i]["t"])
    rows = max([shape[0]] + [int(decisions[i]["row"]) + 1 for i in decision_order])
    cols = max([shape[1]] + [int(decisions[i]["col"]) + 1 for i in decision_order])
    return SessionTrace(
        session_id=session_id,
        shape=(rows, cols),
        x=np.array([events[i]["x"] for i in event_order], dtype=np.float64),
        y=np.array([events[i]["y"] for i in event_order], dtype=np.float64),
        codes=np.array([events[i]["code"] for i in event_order], dtype=np.int64),
        t=np.array([events[i]["t"] for i in event_order], dtype=np.float64),
        d_rows=np.array([decisions[i]["row"] for i in decision_order], dtype=np.int64),
        d_cols=np.array([decisions[i]["col"] for i in decision_order], dtype=np.int64),
        d_conf=np.array([decisions[i]["conf"] for i in decision_order], dtype=np.float64),
        d_t=np.array([decisions[i]["t"] for i in decision_order], dtype=np.float64),
        screen=(int(screen[0]), int(screen[1])),
    )


class LookupFirstSessions:
    """The two-pass session interning ``_Sessions.codes`` replaced.

    Each block is first looked up whole against the raw ids already
    known; only then are the misses interned, one by one, in row order.
    Production interns in one pass and must give the same codes and the
    same ``names``.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._by_name: dict[str, int] = {}
        self._by_raw: dict[str, int] = {}

    def codes(self, cells: list) -> np.ndarray:
        known = self._by_raw.get
        codes = [known(cell) if type(cell) is str else None for cell in cells]
        for index, code in enumerate(codes):
            if code is None:
                codes[index] = self._intern(cells[index])
        return np.array(codes, dtype=np.int64)

    def _intern(self, cell: object) -> int:
        if type(cell) is str and cell in self._by_raw:
            return self._by_raw[cell]
        name = session_text(cell)
        code = self._by_name.setdefault(name, len(self.names)) if name else -1
        if code == len(self.names):
            self.names.append(name)
        if type(cell) is str:
            self._by_raw[cell] = code
        return code

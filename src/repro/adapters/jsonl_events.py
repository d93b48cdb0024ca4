"""JSONL trace adapter (``jsonl:<path>``) — the full-fidelity format.

One JSON object per line, carrying the complete workload: per-session
header records declare the matrix shape and screen, and ``event`` /
``decision`` records carry the columns.  The only format that
round-trips a :class:`~repro.adapters.SessionTrace` completely (events
*and* decisions *and* geometry), so it is the reference format for the
round-trip property tests and the corruption writer's richest target.

Record shapes::

    {"kind": "session", "session": "s1", "shape": [6, 6], "screen": [768, 1024]}
    {"kind": "event", "session": "s1", "t": 0.25, "x": 10.0, "y": 12.0, "event": "move"}
    {"kind": "decision", "session": "s1", "t": 4.0, "row": 2, "col": 3, "confidence": 0.8}

A header whose ``shape`` or ``screen`` pair holds anything but two
non-negative integers (a string, ``null``, ``Infinity``, ``2.5``, ``-3``)
is an unparseable line.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.adapters.base import (
    FieldSpec,
    RecordParseError,
    RecordSchema,
    TraceFormat,
    register,
)
from repro.adapters.records import SessionTrace
from repro.matching.events import EVENT_CODES, N_EVENT_TYPES

_NAMES_BY_CODE = {code: name for name, code in EVENT_CODES.items()}


def _is_dimension(item: object) -> bool:
    """A non-negative integer (an integral float such as ``6.0`` counts)."""
    if isinstance(item, bool):
        return False
    if isinstance(item, int):
        return item >= 0
    return isinstance(item, float) and item.is_integer() and item >= 0


def _header_pair(obj: dict, key: str) -> Optional[tuple[int, int]]:
    """A header's two-item ``key`` field as ints; ``None`` when absent or not a pair."""
    value = obj.get(key)
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        return None
    if not all(_is_dimension(item) for item in value):
        raise RecordParseError(
            f"session header {key} {value!r} is not two non-negative integers"
        )
    return int(value[0]), int(value[1])


@register
class JsonlTraceFormat(TraceFormat):
    """Line-delimited JSON records: session headers, events, decisions."""

    format_name = "jsonl"
    description = "JSONL trace: session/event/decision records, one per line"
    event_schema = RecordSchema(
        [
            FieldSpec("t", kind="float", minimum=0.0),
            FieldSpec("x", kind="float", minimum=0.0),
            FieldSpec("y", kind="float", minimum=0.0),
            FieldSpec("code", kind="int", minimum=0, maximum=N_EVENT_TYPES - 1),
        ]
    )
    decision_schema = RecordSchema(
        [
            FieldSpec("t", kind="float", minimum=0.0),
            FieldSpec("row", kind="int", minimum=0),
            FieldSpec("col", kind="int", minimum=0),
            FieldSpec("conf", kind="float", minimum=0.0, maximum=1.0),
        ]
    )

    @classmethod
    def parse_line(cls, line: str, state: dict) -> Optional[tuple[str, dict]]:
        text = line.strip()
        if not text:
            return None
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RecordParseError(f"broken JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise RecordParseError("JSON record is not an object")
        kind = obj.get("kind")
        if kind == "session":
            session_id = str(obj.get("session", "")).strip()
            if session_id:
                headers = state.setdefault("headers", {})
                pairs = {key: _header_pair(obj, key) for key in ("shape", "screen")}
                headers[session_id] = {
                    key: pair for key, pair in pairs.items() if pair is not None
                }
            return None
        if kind == "event":
            event = obj.get("event")
            code = EVENT_CODES.get(event, event)
            return "event", {
                "session": obj.get("session"),
                "t": obj.get("t"),
                "x": obj.get("x"),
                "y": obj.get("y"),
                "code": code,
            }
        if kind == "decision":
            return "decision", {
                "session": obj.get("session"),
                "t": obj.get("t"),
                "row": obj.get("row"),
                "col": obj.get("col"),
                "conf": obj.get("confidence"),
            }
        raise RecordParseError(f"unknown record kind {kind!r}")

    @classmethod
    def session_defaults(cls, state: dict, session_id: str) -> dict:
        return state.get("headers", {}).get(session_id, {})

    @classmethod
    def header_lines(cls, traces: Sequence[SessionTrace]) -> list[str]:
        lines = []
        for trace in traces:
            header = {
                "kind": "session",
                "session": trace.session_id,
                "shape": list(trace.shape),
            }
            if trace.screen is not None:
                header["screen"] = list(trace.screen)
            lines.append(json.dumps(header, sort_keys=True))
        return lines

    @classmethod
    def encode_event(cls, session_id: str, record: dict) -> str:
        return json.dumps(
            {
                "kind": "event",
                "session": session_id,
                "t": float(record["t"]),
                "x": float(record["x"]),
                "y": float(record["y"]),
                "event": _NAMES_BY_CODE.get(
                    int(record["code"]), int(record["code"])
                ),
            },
            sort_keys=True,
        )

    @classmethod
    def encode_decision(cls, session_id: str, record: dict) -> str:
        return json.dumps(
            {
                "kind": "decision",
                "session": session_id,
                "t": float(record["t"]),
                "row": int(record["row"]),
                "col": int(record["col"]),
                "confidence": float(record["conf"]),
            },
            sort_keys=True,
        )


__all__ = ["JsonlTraceFormat"]

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

A header whose ``shape`` pair holds anything but two integers in
``[0, MAX_DIMENSION]``, or whose ``screen`` pair holds anything but two
integers in ``[1, MAX_DIMENSION]`` (a string, ``null``, ``Infinity``,
``2.5``, ``-3``, ``100000``), is an unparseable line.

Each stripped line is decoded once by the C scanner; only a line that
fails is decoded again by ``json.loads``, for its error message.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.adapters.base import (
    DecodedBlock,
    FieldSpec,
    RawRows,
    RecordParseError,
    RecordSchema,
    TraceFormat,
    register,
    session_text,
    show,
)
from repro.adapters.records import MAX_DIMENSION, SessionTrace
from repro.matching.events import EVENT_CODES, N_EVENT_TYPES

_NAMES_BY_CODE = {code: name for name, code in EVENT_CODES.items()}

#: Smallest value of each header pair: a matrix may be empty, a screen not.
_HEADER_MINIMUM = {"shape": 0, "screen": 1}

#: Raw JSON key of each schema field, per record kind.
_KEYS = {
    "event": {"t": "t", "x": "x", "y": "y", "code": "event"},
    "decision": {"t": "t", "row": "row", "col": "col", "conf": "confidence"},
}

_scan = json.JSONDecoder().scan_once


def _is_dimension(item: object, minimum: int) -> bool:
    """An integer in ``[minimum, MAX_DIMENSION]`` (an integral float such as ``6.0`` counts)."""
    if isinstance(item, bool):
        return False
    if isinstance(item, int):
        return minimum <= item <= MAX_DIMENSION
    return isinstance(item, float) and item.is_integer() and minimum <= item <= MAX_DIMENSION


def _header_pair(obj: dict, key: str) -> Optional[tuple[int, int]]:
    """A header's two-item ``key`` field as ints; ``None`` when absent or not a pair."""
    value = obj.get(key)
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        return None
    minimum = _HEADER_MINIMUM[key]
    if not all(_is_dimension(item, minimum) for item in value):
        raise RecordParseError(
            f"session header {key} {show(value)} is not two integers "
            f"in [{minimum}, {MAX_DIMENSION}]"
        )
    return int(value[0]), int(value[1])


def decode_json(text: str) -> object:
    """``json.loads(text)``, its failures raised as :class:`RecordParseError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"broken JSON: {exc.msg}") from None
    except ValueError as exc:  # e.g. an integer past the digit limit
        raise RecordParseError(f"broken JSON: {exc}") from None
    except RecursionError:
        raise RecordParseError("broken JSON: nesting too deep") from None


def event_code(event: object) -> object:
    """An event cell as its code: a known name maps, anything else passes on."""
    return EVENT_CODES.get(event, event) if type(event) is str else event


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
            FieldSpec("row", kind="int", minimum=0, maximum=MAX_DIMENSION - 1),
            FieldSpec("col", kind="int", minimum=0, maximum=MAX_DIMENSION - 1),
            FieldSpec("conf", kind="float", minimum=0.0, maximum=1.0),
        ]
    )

    @classmethod
    def decode_block(
        cls, lines: Sequence[str], first_number: int, state: dict
    ) -> DecodedBlock:
        block = DecodedBlock()
        records: dict[str, list[dict]] = {"event": [], "decision": []}
        numbers: dict[str, list[int]] = {"event": [], "decision": []}
        headers = state.setdefault("headers", {})
        for number, line in enumerate(lines, start=first_number):
            text = line.strip()
            if not text:
                continue
            try:
                # scan_once with end == len(text) accepts exactly what
                # json.loads accepts on a stripped line; a line it rejects
                # is decoded again only for the standard error message.
                try:
                    obj, end = _scan(text, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = -1
                if end != len(text):
                    obj = decode_json(text)
                if type(obj) is not dict:
                    raise RecordParseError("JSON record is not an object")
                kind = obj.get("kind")
                if kind == "event" or kind == "decision":
                    records[kind].append(obj)
                    numbers[kind].append(number)
                elif kind == "session":
                    session_id = session_text(obj.get("session", ""))
                    if session_id:
                        pairs = {key: _header_pair(obj, key) for key in _HEADER_MINIMUM}
                        headers[session_id] = {
                            key: pair for key, pair in pairs.items() if pair is not None
                        }
                else:
                    raise RecordParseError(f"unknown record kind {show(kind)}")
            except RecordParseError as exc:
                block.unparseable.append((number, str(exc)))
        for kind, objs in records.items():
            if not objs:
                continue
            cells = {
                name: [obj.get(key) for obj in objs]
                for name, key in _KEYS[kind].items()
            }
            if kind == "event":
                cells["code"] = [event_code(event) for event in cells["code"]]
            block.rows[kind] = RawRows(
                numbers[kind], [obj.get("session") for obj in objs], cells
            )
        return block

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

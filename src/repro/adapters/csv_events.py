"""CSV mouse-event-log adapter (``csv:<path>``).

The plainest external instrumentation dump: one row per mouse event,
header ``session_id,t,x,y,event``, with the event given either by its
stable integer code or by its name from
:data:`~repro.matching.events.EVENT_CODES` (``move``/``left``/
``right``/``scroll``).  Events only — pair it with an OAEI decision file
via :func:`~repro.adapters.merge_traces` when the workload needs
decisions too.
"""

from __future__ import annotations

from typing import Sequence

from repro.adapters.base import (
    DecodedBlock,
    FieldSpec,
    RawRows,
    RecordSchema,
    TraceFormat,
    register,
)
from repro.adapters.records import SessionTrace
from repro.matching.events import EVENT_CODES, N_EVENT_TYPES

_HEADER = "session_id,t,x,y,event"
_NAMES_BY_CODE = {code: name for name, code in EVENT_CODES.items()}


def split_rows(
    lines: Sequence[str], first_number: int, header: str, block: DecodedBlock
) -> tuple[list[int], list[list[str]]]:
    """A block's comma-separated rows as stripped columns, with line numbers.

    Blank lines, ``#`` comments and the ``header`` line are skipped; a
    row without one field per ``header`` column goes to
    ``block.unparseable``.
    """
    width = header.count(",") + 1
    numbers: list[int] = []
    rows: list[list[str]] = []
    for number, line in enumerate(lines, start=first_number):
        text = line.strip()
        if not text or text.startswith("#") or text == header:
            continue
        parts = text.split(",")
        if len(parts) != width:
            block.unparseable.append(
                (number, f"expected {width} comma-separated fields, got {len(parts)}")
            )
            continue
        numbers.append(number)
        rows.append([part.strip() for part in parts])
    return numbers, [list(column) for column in zip(*rows)]


@register
class CsvEventFormat(TraceFormat):
    """One mouse event per CSV row; the lowest-common-denominator log."""

    format_name = "csv"
    description = "CSV mouse-event log: session_id,t,x,y,event"
    event_schema = RecordSchema(
        [
            FieldSpec("t", kind="float", minimum=0.0),
            FieldSpec("x", kind="float", minimum=0.0),
            FieldSpec("y", kind="float", minimum=0.0),
            FieldSpec("code", kind="int", minimum=0, maximum=N_EVENT_TYPES - 1),
        ]
    )
    decision_schema = None

    @classmethod
    def decode_block(
        cls, lines: Sequence[str], first_number: int, state: dict
    ) -> DecodedBlock:
        block = DecodedBlock()
        numbers, columns = split_rows(lines, first_number, _HEADER, block)
        if numbers:
            sessions, t, x, y, events = columns
            code = [EVENT_CODES.get(event, event) for event in events]
            block.rows["event"] = RawRows(
                numbers, sessions, {"t": t, "x": x, "y": y, "code": code}
            )
        return block

    @classmethod
    def header_lines(cls, traces: Sequence[SessionTrace]) -> list[str]:
        return [_HEADER]

    @classmethod
    def encode_event(cls, session_id: str, record: dict) -> str:
        name = _NAMES_BY_CODE.get(int(record["code"]), str(record["code"]))
        return (
            f"{session_id},{record['t']!r},{record['x']!r},{record['y']!r},{name}"
        )


__all__ = ["CsvEventFormat", "split_rows"]

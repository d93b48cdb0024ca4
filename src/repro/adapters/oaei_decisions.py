"""OAEI-style alignment/decision-file adapter (``oaei:<path>``).

Schema-matching evaluations (OAEI campaigns, and the KG-RAG4SM-style
schema-matching record vocabulary) exchange alignments as correspondence
rows: matcher, source entity, target entity, relation, confidence, and —
when the tooling logs it — a timestamp.  This adapter reads such a file
as *decision* traces: the matcher column becomes the session id, the
``a<i>``/``b<j>`` entity labels (or bare integers) become the matrix
pair, the confidence and timestamp become the decision payload.  Only
the equivalence relation (``=``) is accepted; anything else fails the
schema.

Decision-only by design — compose with a ``csv``/``jsonl`` mouse-event
log over :func:`~repro.adapters.merge_traces` to rebuild the full
``(H, G)`` behaviour pair.

Header: ``matcher,source,target,relation,confidence,timestamp``.
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
from repro.adapters.csv_events import split_rows
from repro.adapters.records import MAX_DIMENSION, SessionTrace

_HEADER = "matcher,source,target,relation,confidence,timestamp"


def entity_index(label: str, prefix: str) -> object:
    """``a3``/``b7``-style labels (or bare integers) to matrix indices.

    Unknown vocabulary passes through unconverted so the schema rejects
    it as ``schema_invalid`` with the field named, not as a parse crash.
    """
    text = label.strip()
    if text.startswith(prefix) and text[len(prefix):].isdecimal():
        digits = text[len(prefix):]
    elif text.lstrip("-").isdecimal():
        digits = text
    else:
        return text
    try:
        return int(digits)
    except ValueError:  # "--3", or past the integer digit limit
        return text


@register
class OaeiDecisionFormat(TraceFormat):
    """OAEI-style correspondence rows as matching-decision traces."""

    format_name = "oaei"
    description = (
        "OAEI-style alignment CSV: matcher,source,target,relation,"
        "confidence,timestamp"
    )
    event_schema = None
    decision_schema = RecordSchema(
        [
            FieldSpec("t", kind="float", minimum=0.0),
            FieldSpec("row", kind="int", minimum=0, maximum=MAX_DIMENSION - 1),
            FieldSpec("col", kind="int", minimum=0, maximum=MAX_DIMENSION - 1),
            FieldSpec("conf", kind="float", minimum=0.0, maximum=1.0),
            FieldSpec("relation", kind="str", choices=("=",)),
        ]
    )

    @classmethod
    def decode_block(
        cls, lines: Sequence[str], first_number: int, state: dict
    ) -> DecodedBlock:
        block = DecodedBlock()
        numbers, columns = split_rows(lines, first_number, _HEADER, block)
        if numbers:
            sessions, sources, targets, relation, conf, t = columns
            block.rows["decision"] = RawRows(
                numbers,
                sessions,
                {
                    "t": t,
                    "row": [entity_index(source, "a") for source in sources],
                    "col": [entity_index(target, "b") for target in targets],
                    "conf": conf,
                    "relation": relation,
                },
            )
        return block

    @classmethod
    def header_lines(cls, traces: Sequence[SessionTrace]) -> list[str]:
        return [_HEADER]

    @classmethod
    def encode_decision(cls, session_id: str, record: dict) -> str:
        return (
            f"{session_id},a{int(record['row'])},b{int(record['col'])},"
            f"=,{record['conf']!r},{record['t']!r}"
        )


__all__ = ["OaeiDecisionFormat"]

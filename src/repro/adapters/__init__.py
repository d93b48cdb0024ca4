"""Ingestion adapters: parse external matcher traces into sessions.

The trust boundary between files written by other people's
instrumentation and the strict streaming core.  A format registry
(:func:`register` / :func:`get_format`) maps source formats — ``csv``
mouse-event logs, full-fidelity ``jsonl`` traces, ``oaei`` alignment/
decision files — onto one shared columnar read driver with per-field
schema validation, row-level quarantine (exact per-reason counters through
:class:`~repro.stream.QuarantineLog`), a configurable recovery policy
(``skip``/``repair``/``abort``), and bounded retry with backoff behind
the ``adapter.read`` fault seam.

Importing the package registers the built-in formats.
"""

from repro.adapters.base import (
    AdapterError,
    DEFAULT_BACKOFF,
    DEFAULT_CLOCK_SKEW,
    DEFAULT_MAX_READ_RETRIES,
    DecodedBlock,
    FieldSpec,
    RECOVERY_POLICIES,
    RawRows,
    RecordParseError,
    RecordSchema,
    TraceFormat,
    available_formats,
    get_format,
    iter_trace_records,
    parse_source,
    read_source,
    register,
)
from repro.adapters.csv_events import CsvEventFormat
from repro.adapters.jsonl_events import JsonlTraceFormat
from repro.adapters.oaei_decisions import OaeiDecisionFormat
from repro.adapters.records import (
    ADAPTER_TRACE_VERSION,
    DEFAULT_SCREEN,
    MAX_DIMENSION,
    SessionTrace,
    merge_traces,
    trace_fingerprint,
    trace_from_matcher,
)

__all__ = [
    "ADAPTER_TRACE_VERSION",
    "AdapterError",
    "CsvEventFormat",
    "DEFAULT_BACKOFF",
    "DEFAULT_CLOCK_SKEW",
    "DEFAULT_MAX_READ_RETRIES",
    "DEFAULT_SCREEN",
    "DecodedBlock",
    "FieldSpec",
    "JsonlTraceFormat",
    "MAX_DIMENSION",
    "OaeiDecisionFormat",
    "RECOVERY_POLICIES",
    "RawRows",
    "RecordParseError",
    "RecordSchema",
    "SessionTrace",
    "TraceFormat",
    "available_formats",
    "get_format",
    "iter_trace_records",
    "merge_traces",
    "parse_source",
    "read_source",
    "register",
    "trace_fingerprint",
    "trace_from_matcher",
]

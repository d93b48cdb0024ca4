"""Deterministic trace-file corruption for the ingestion chaos suite.

:func:`write_corrupted_trace` serialises a clean workload through a
registered adapter format and damages a seeded selection of rows on the
way out — garbage lines (``unparseable``), out-of-range field values
(``schema_invalid``), rewound timestamps (``clock_skew``), and exact
re-inserted copies (``duplicate``).  The damage is injected in the
format's own vocabulary (via the format's ``encode_*`` hooks), so a CSV
file is damaged the way CSV files break and a JSONL file the way JSON
breaks.

The returned :class:`CorruptionReport` is the test oracle: it knows the
exact per-reason quarantine counts a screened read must produce
(:meth:`CorruptionReport.expected_counts`) and the clean workload a
strict read of the survivors must equal
(:meth:`CorruptionReport.clean_traces` — the input traces minus the
rows that were *replaced* by damage; duplicated rows are insertions, so
they drop nothing).

Everything is a pure function of ``seed``: the same call produces the
same bytes, the same damage positions, and therefore the same
quarantine ledger — the property the differential invariant test pins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from repro.adapters.base import get_format, iter_trace_records
from repro.adapters.records import SessionTrace

#: The damage kinds the writer can inject, by quarantine reason.
DAMAGE_REASONS = ("unparseable", "schema_invalid", "clock_skew", "duplicate")

#: A line no format can decode (not CSV-shaped, not JSON).
GARBAGE_LINE = "!corrupted row: \x7f\x01 not a record !"


@dataclass(frozen=True)
class Damage:
    """One injected defect: which session/row, and the expected reason."""

    session_id: str
    reason: str
    kind: str  # "event" or "decision"
    index: int  # index within that session's rows of that kind
    detail: str


@dataclass
class CorruptionReport:
    """What :func:`write_corrupted_trace` did, as a test oracle."""

    path: Path
    format_name: str
    seed: int
    damages: list[Damage]

    def expected_counts(self) -> dict[str, int]:
        """Exact per-reason quarantine counts a screened read must log."""
        counts = {reason: 0 for reason in DAMAGE_REASONS}
        for damage in self.damages:
            counts[damage.reason] += 1
        return counts

    def clean_traces(self, traces: Sequence[SessionTrace]) -> list[SessionTrace]:
        """The surviving workload: input traces minus replaced rows.

        ``duplicate`` damage inserts an extra copy (the original
        survives); every other kind replaces the original row, so the
        clean comparison workload drops it.
        """
        dropped: dict[tuple[str, str], set[int]] = {}
        for damage in self.damages:
            if damage.reason == "duplicate":
                continue
            dropped.setdefault((damage.session_id, damage.kind), set()).add(
                damage.index
            )
        survivors = []
        for trace in traces:
            event_drop = dropped.get((trace.session_id, "event"), set())
            decision_drop = dropped.get((trace.session_id, "decision"), set())
            event_keep = np.array(
                [i for i in range(trace.n_events) if i not in event_drop],
                dtype=np.int64,
            )
            decision_keep = np.array(
                [i for i in range(trace.n_decisions) if i not in decision_drop],
                dtype=np.int64,
            )
            survivors.append(
                replace(
                    trace,
                    x=trace.x[event_keep],
                    y=trace.y[event_keep],
                    codes=trace.codes[event_keep],
                    t=trace.t[event_keep],
                    d_rows=trace.d_rows[decision_keep],
                    d_cols=trace.d_cols[decision_keep],
                    d_conf=trace.d_conf[decision_keep],
                    d_t=trace.d_t[decision_keep],
                )
            )
        return survivors


def _corrupt_field(record: dict, kind: str, rng: np.random.Generator) -> tuple[dict, str]:
    """A schema-breaking copy of one record (out-of-range field value)."""
    damaged = dict(record)
    if kind == "event":
        variant = int(rng.integers(0, 3))
        if variant == 0:
            damaged["code"] = 17 + int(rng.integers(0, 5))
            return damaged, "event code out of range"
        if variant == 1:
            damaged["t"] = -float(np.round(rng.uniform(1.0, 9.0), 3))
            return damaged, "negative timestamp"
        damaged["x"] = -float(np.round(rng.uniform(1.0, 50.0), 3))
        return damaged, "negative x position"
    variant = int(rng.integers(0, 2))
    if variant == 0:
        damaged["conf"] = float(np.round(rng.uniform(1.2, 3.0), 3))
        return damaged, "confidence above 1"
    damaged["row"] = -1 - int(rng.integers(0, 4))
    return damaged, "negative pair row"


def write_corrupted_trace(
    traces: Sequence[SessionTrace],
    path: Union[str, Path],
    format_name: str = "jsonl",
    *,
    seed: int = 0,
    n_unparseable: int = 2,
    n_schema_invalid: int = 2,
    n_clock_skew: int = 1,
    n_duplicate: int = 2,
    clock_skew_tolerance: float = 1.0,
) -> CorruptionReport:
    """Write ``traces`` in ``format_name`` with seeded damage injected.

    Damage targets are drawn without replacement from the eligible rows
    (``clock_skew`` needs a predecessor of the same kind and room to
    rewind past the tolerance while staying non-negative), so the
    requested counts are exact.  Raises ``ValueError`` when the workload
    is too small to host the requested damage.
    """
    path = Path(path)
    format_cls = get_format(format_name)
    rng = np.random.default_rng(seed)

    # Flatten the workload into per-line plans, tracking each row's
    # session, kind, and index-within-kind so damage is attributable.
    # clock_skew eligibility: a same-kind predecessor exists and the
    # rewound timestamp stays non-negative even at the maximum margin
    # (2.0, matching the draw below) — a negative timestamp would land
    # in schema_invalid instead and skew the expected counters.
    rows: list[tuple[str, str, int, dict]] = []
    skew_eligible: list[bool] = []
    previous_t: dict[tuple[str, str], float] = {}
    per_kind_counts: dict[tuple[str, str], int] = {}
    for trace in traces:
        for kind, record in iter_trace_records(trace):
            if kind == "event" and format_cls.event_schema is None:
                continue
            if kind == "decision" and format_cls.decision_schema is None:
                continue
            key = (trace.session_id, kind)
            index = per_kind_counts.get(key, 0)
            per_kind_counts[key] = index + 1
            rows.append((trace.session_id, kind, index, record))
            skew_eligible.append(
                key in previous_t and previous_t[key] - clock_skew_tolerance - 2.0 > 0.0
            )
            previous_t[key] = record["t"]
    if not rows:
        raise ValueError("cannot corrupt an empty workload")

    n_damage = n_unparseable + n_schema_invalid + n_clock_skew + n_duplicate
    if n_damage > len(rows):
        raise ValueError(
            f"requested {n_damage} damaged rows but the workload has {len(rows)}"
        )
    order = rng.permutation(len(rows)).tolist()
    skew_targets: list[int] = []
    for position in order:
        if len(skew_targets) == n_clock_skew:
            break
        if skew_eligible[position]:
            skew_targets.append(position)
    if len(skew_targets) < n_clock_skew:
        raise ValueError("not enough clock_skew-eligible rows in the workload")
    skew_set = set(skew_targets)
    remaining = [p for p in order if p not in skew_set]
    cursor = 0
    # A clock_skew row is rewound behind the latest intact row of its
    # session and kind, so replacing damage must leave one such row in
    # front of every skew target: count them, and guard the last one.
    intact = {
        target: sum(
            1 for p in range(target)
            if rows[p][:2] == rows[target][:2] and p not in skew_set
        )
        for target in skew_targets
    }

    def take(count: int, *, replaces: bool) -> list[int]:
        nonlocal cursor
        chosen: list[int] = []
        guarded: list[int] = []
        while len(chosen) < count and cursor < len(remaining):
            position = remaining[cursor]
            cursor += 1
            behind = [
                target for target in skew_targets
                if target > position and rows[target][:2] == rows[position][:2]
            ]
            if replaces and any(intact[target] == 1 for target in behind):
                guarded.append(position)
                continue
            if replaces:
                for target in behind:
                    intact[target] -= 1
            chosen.append(position)
        remaining[cursor:cursor] = guarded  # still free for later, non-replacing damage
        if len(chosen) < count:
            raise ValueError("not enough rows left to damage")
        return chosen

    plan: dict[int, str] = {p: "clock_skew" for p in skew_targets}
    plan.update({p: "unparseable" for p in take(n_unparseable, replaces=True)})
    plan.update({p: "schema_invalid" for p in take(n_schema_invalid, replaces=True)})
    plan.update({p: "duplicate" for p in take(n_duplicate, replaces=False)})

    def encode(session_id: str, kind: str, record: dict) -> str:
        if kind == "event":
            return format_cls.encode_event(session_id, record)
        return format_cls.encode_decision(session_id, record)

    damages: list[Damage] = []
    lines = format_cls.header_lines(list(traces))
    running_t: dict[tuple[str, str], float] = {}
    for position, (session_id, kind, index, record) in enumerate(rows):
        reason = plan.get(position)
        if reason is None:
            lines.append(encode(session_id, kind, record))
            running_t[(session_id, kind)] = float(record["t"])
            continue
        if reason == "unparseable":
            lines.append(GARBAGE_LINE)
            damages.append(
                Damage(session_id, "unparseable", kind, index, "garbage line")
            )
        elif reason == "schema_invalid":
            damaged, detail = _corrupt_field(record, kind, rng)
            lines.append(encode(session_id, kind, damaged))
            damages.append(
                Damage(session_id, "schema_invalid", kind, index, detail)
            )
        elif reason == "clock_skew":
            previous = running_t[(session_id, kind)]
            margin = float(np.round(rng.uniform(0.5, 2.0), 3))
            rewound = dict(record)
            rewound["t"] = previous - clock_skew_tolerance - margin
            lines.append(encode(session_id, kind, rewound))
            damages.append(
                Damage(
                    session_id, "clock_skew", kind, index,
                    f"rewound {clock_skew_tolerance + margin:.3f}s",
                )
            )
        else:  # duplicate: the original row, then an exact re-send
            lines.append(encode(session_id, kind, record))
            lines.append(encode(session_id, kind, record))
            running_t[(session_id, kind)] = float(record["t"])
            damages.append(
                Damage(session_id, "duplicate", kind, index, "exact re-send")
            )
    path.write_text("\n".join(lines) + "\n")
    return CorruptionReport(
        path=path, format_name=format_name, seed=seed, damages=damages
    )


__all__ = [
    "DAMAGE_REASONS",
    "CorruptionReport",
    "Damage",
    "GARBAGE_LINE",
    "write_corrupted_trace",
]

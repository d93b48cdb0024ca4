"""``python -m repro.stream`` — replay simulated traces as a live workload.

Two sub-commands:

``replay``
    Simulate an archetype-cycled matcher cohort (the mouse-simulation
    personas), then feed every trace — mouse events and matching
    decisions alike — through a :class:`~repro.stream.SessionManager` in
    global event-time order, step by step, re-characterizing the dirty
    sessions at a fixed cadence and reporting **scores over time**.
    Optionally snapshots the final session state as a checkpoint bundle
    (``--checkpoint``), or resumes a previous one (``--resume``) and
    replays only the not-yet-ingested remainder of each trace —
    producing the same final scores as an uninterrupted run.

    Instead of simulating, ``--input FORMAT:PATH`` replays an external
    trace file through a registered ingestion adapter
    (:mod:`repro.adapters`): rows are schema-validated at parse time
    and bad ones diverted to a quarantine log under the ``--recovery``
    policy (``skip``/``repair``/``abort``).  A decisions-only file
    (e.g. the ``oaei`` format) can be merged in with
    ``--decisions-input``.  The checkpoint manifest records the
    workload's source, fingerprint, and trace version, and resuming
    against a *different* trace warns.
``inspect``
    Print a checkpoint bundle's manifest without loading its arrays.

Examples (run with ``PYTHONPATH=src``):

.. code-block:: bash

    python -m repro.stream replay --scale tiny --steps 8 --report-every 2
    python -m repro.stream replay --scale tiny --checkpoint /tmp/ckpt
    python -m repro.stream replay --scale tiny --resume /tmp/ckpt
    python -m repro.stream replay --input jsonl:trace.jsonl --recovery skip
    python -m repro.stream inspect --checkpoint /tmp/ckpt
"""

from __future__ import annotations

import argparse
import json
import warnings
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.adapters.base import clock_skew_seconds
from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import EXPERT_CHARACTERISTICS, characterize_population, labels_matrix
from repro.core.features.cache import FeatureBlockCache
from repro.experiments.config import SCALE_NAMES, ExperimentConfig
from repro.matching.matcher import HumanMatcher
from repro.runtime import runtime_argument
from repro.runtime.faults import ReproRuntimeWarning
from repro.serve.service import CharacterizationService
from repro.simulation.archetypes import Archetype
from repro.simulation.dataset import build_dataset
from repro.simulation.population import simulate_population
from repro.simulation.schemas import build_po_task
from repro.stream.checkpoint import load_checkpoint, read_checkpoint_manifest, save_checkpoint
from repro.stream.session import SessionManager

#: Archetype cycle the replay cohort is drawn from (the paper's personas).
REPLAY_ARCHETYPES = (Archetype.A, Archetype.B, Archetype.C, Archetype.D)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream",
        description="Replay simulated matcher traces as a live streaming workload.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    replay = commands.add_parser("replay", help="stream a simulated cohort and report scores over time")
    replay.add_argument("--bundle", default=None, metavar="DIR", help="model bundle to serve (default: fit an offline-feature model in process)")
    replay.add_argument("--scale", choices=SCALE_NAMES, default="tiny", help="training-cohort/model scale")
    replay.add_argument("--seed", type=int, default=42, help="master random seed")
    replay.add_argument("--sessions", type=int, default=8, help="number of concurrent live sessions (ignored with --input)")
    replay.add_argument("--input", default=None, metavar="FORMAT:PATH", help="replay an external trace file through an ingestion adapter (e.g. jsonl:trace.jsonl) instead of simulating")
    replay.add_argument("--decisions-input", default=None, metavar="FORMAT:PATH", help="merge a decisions-only trace file (e.g. oaei:align.csv) into the --input workload")
    replay.add_argument("--recovery", choices=("skip", "repair", "abort"), default="skip", help="what to do with rows that fail adapter validation (default: quarantine and skip)")
    replay.add_argument("--clock-skew", type=clock_skew_seconds, default=1.0, metavar="SECONDS", help="per-session backwards-timestamp tolerance during adapter ingest")
    replay.add_argument("--steps", type=int, default=8, help="replay time steps")
    replay.add_argument("--stop-after", type=int, default=None, metavar="N", help="halt the replay after step N (checkpoint it, resume later with the same --steps)")
    replay.add_argument("--report-every", type=int, default=2, metavar="K", help="re-characterize the dirty sessions every K steps")
    replay.add_argument("--runtime", type=runtime_argument, default=None, metavar="BACKEND[:N]", help="TaskRunner backend for re-characterization (serial or process[:N])")
    replay.add_argument("--reorder-window", type=float, default=0.0, help="per-session out-of-order tolerance (seconds)")
    replay.add_argument("--max-sessions", type=int, default=None, help="LRU capacity of the session manager")
    replay.add_argument("--idle-timeout", type=float, default=None, help="evict sessions idle longer than this (event-time seconds)")
    replay.add_argument("--checkpoint", default=None, metavar="DIR", help="write the final session state as a checkpoint bundle")
    replay.add_argument("--resume", default=None, metavar="DIR", help="restore session state from a checkpoint and continue the replay")
    replay.add_argument("--journal", default=None, metavar="PATH", help="append spans and a final metrics snapshot to a JSONL run journal (see python -m repro.obs report)")
    replay.add_argument("--format", choices=("table", "json"), default="table", help="output format")

    inspect = commands.add_parser("inspect", help="print a checkpoint bundle's metadata")
    inspect.add_argument("--checkpoint", required=True, metavar="DIR", help="checkpoint bundle directory")
    return parser


def build_service(
    bundle: Optional[str] = None,
    *,
    scale: str = "tiny",
    seed: int = 42,
    runtime=None,
) -> CharacterizationService:
    """Load a bundle, or fit a laptop-quick offline-feature model in process.

    Shared by ``python -m repro.stream replay`` and the sharded serving
    CLI (``python -m repro.shard``): both need a scoring service and
    accept either a persisted artifact bundle or an in-process fit at a
    named experiment scale.
    """
    if bundle:
        return CharacterizationService.from_bundle(bundle, runtime=runtime)
    config = ExperimentConfig.from_scale(scale, random_state=seed)
    dataset = build_dataset(
        n_po_matchers=config.n_po_matchers,
        n_oaei_matchers=config.n_oaei_matchers,
        random_state=config.random_state,
    )
    profiles, _ = characterize_population(dataset.po_matchers, random_state=config.random_state)
    model = MExICharacterizer(
        variant=MExIVariant.SUB_50,
        feature_sets=("lrsm", "beh", "mou"),
        random_state=config.random_state,
        cache=FeatureBlockCache(),
    )
    model.fit(dataset.po_matchers, labels_matrix(profiles))
    return CharacterizationService(model, runtime=runtime)


def _build_service(args: argparse.Namespace) -> CharacterizationService:
    """Build the replay service from parsed CLI flags."""
    return build_service(args.bundle, scale=args.scale, seed=args.seed, runtime=args.runtime)


def _workload(seed: int, n_sessions: int) -> list[HumanMatcher]:
    """An archetype-cycled cohort whose traces the replay streams live."""
    pair, reference = build_po_task()
    return simulate_population(
        pair,
        reference,
        n_matchers=n_sessions,
        archetypes=list(REPLAY_ARCHETYPES),
        random_state=seed + 1,  # distinct from the training cohorts
        id_prefix="live",
    )


def _adapter_workload(args: argparse.Namespace):
    """Parse ``--input`` (and ``--decisions-input``) through the registry.

    Returns ``(workload, quarantine_log, workload_info)``: the matcher
    cohort rebuilt from the surviving rows, the quarantine ledger the
    screened read filled (``None`` under ``--recovery abort``, where the
    first bad row raises instead), and the provenance record the
    checkpoint manifest stores for resume-time verification.
    """
    from repro.adapters import (
        ADAPTER_TRACE_VERSION,
        merge_traces,
        read_source,
        trace_fingerprint,
    )
    from repro.stream.quarantine import QuarantineLog

    quarantine = None if args.recovery == "abort" else QuarantineLog()
    read_kwargs = dict(
        quarantine=quarantine,
        policy=args.recovery,
        clock_skew=args.clock_skew,
    )
    traces = read_source(args.input, **read_kwargs)
    if args.decisions_input:
        decisions = read_source(args.decisions_input, **read_kwargs)
        traces = merge_traces(traces, decisions)
    info = {
        "source": args.input,
        "trace_version": ADAPTER_TRACE_VERSION,
        "fingerprint": trace_fingerprint(traces),
    }
    return [trace.to_matcher() for trace in traces], quarantine, info


def _check_resume_workload(resume: str, info: dict) -> None:
    """Warn when a resumed checkpoint disagrees with the current ``--input``."""
    saved = read_checkpoint_manifest(resume).get("workload")
    if saved is None:
        warnings.warn(
            ReproRuntimeWarning(
                f"checkpoint {resume} records no input workload; cannot "
                "verify it matches --input"
            ),
            stacklevel=3,
        )
        return
    if saved.get("trace_version") != info["trace_version"]:
        warnings.warn(
            ReproRuntimeWarning(
                f"checkpoint {resume} was written with adapter trace version "
                f"{saved.get('trace_version')} but this build uses "
                f"{info['trace_version']}; resumed scores may diverge"
            ),
            stacklevel=3,
        )
    if saved.get("fingerprint") != info["fingerprint"]:
        warnings.warn(
            ReproRuntimeWarning(
                f"checkpoint {resume} was written from "
                f"{saved.get('source')} (fingerprint {saved.get('fingerprint')}) "
                f"but --input resolves to fingerprint {info['fingerprint']}; "
                "resuming against a different trace"
            ),
            stacklevel=3,
        )


def _replay(
    manager: SessionManager,
    workload: Sequence[HumanMatcher],
    *,
    steps: int,
    report_every: int,
    runtime,
    stop_after: Optional[int] = None,
) -> list[dict]:
    """Stream the workload step by step; return the scores-over-time records.

    ``stop_after`` halts the replay after that step (the checkpoint /
    resume demonstration: a resumed replay with the same ``steps`` and
    ``report_every`` continues the same schedule and lands on the same
    final scores as an uninterrupted run).
    """
    horizon = 0.0
    for matcher in workload:
        if len(matcher.movement):
            horizon = max(horizon, float(matcher.movement.data.t[-1]))
        if len(matcher.history):
            horizon = max(horizon, float(matcher.history.decisions[-1].timestamp))
    boundaries = np.linspace(0.0, horizon, max(steps, 1) + 1)
    last_step = len(boundaries) - 1
    if stop_after is not None:
        last_step = min(last_step, max(stop_after, 1))

    records: list[dict] = []
    for step in range(1, last_step + 1):
        # The first window is closed at 0: relative timestamps start at
        # exactly 0.0, and every later window is open at its start.
        start = float(boundaries[step - 1]) if step > 1 else -np.inf
        end = float(boundaries[step])
        for matcher in workload:
            # Evicted (or brand-new) sessions restart from the current
            # window — exactly what live LRU traffic looks like.
            if matcher.matcher_id not in manager:
                manager.open(
                    matcher.matcher_id,
                    matcher.history.shape,
                    screen=matcher.movement.screen,
                )
            session = manager.session(matcher.matcher_id)
            data = matcher.movement.data
            # Resuming: replay only what the session has not seen yet.
            floor = max(start, session.buffer.max_timestamp)
            lo = int(np.searchsorted(data.t, floor, side="right"))
            hi = int(np.searchsorted(data.t, end, side="right"))
            if hi > lo:
                manager.ingest_events(
                    matcher.matcher_id,
                    data.x[lo:hi], data.y[lo:hi], data.codes[lo:hi], data.t[lo:hi],
                )
            last_decision = max(
                (d.timestamp for d in session.decisions), default=-np.inf
            )
            for decision in matcher.history:
                if max(start, last_decision) < decision.timestamp <= end:
                    manager.add_decision(
                        matcher.matcher_id,
                        decision.row, decision.col,
                        decision.confidence, decision.timestamp,
                    )
        if manager.idle_timeout is not None:
            manager.evict_idle(now=end)
        if step % max(report_every, 1) == 0 or step == last_step:
            scores = manager.recharacterize(runtime=runtime)
            stats = manager.stats()
            record = {
                "step": step,
                "stream_time": end,
                "n_scored": scores.n_matchers,
                "n_sessions": stats["n_sessions"],
                "n_events": stats["n_events"],
            }
            if scores.n_matchers:
                for column, name in enumerate(EXPERT_CHARACTERISTICS):
                    record[f"mean_{name}"] = float(scores.probabilities[:, column].mean())
                    record[f"experts_{name}"] = int(scores.labels[:, column].sum())
            records.append(record)
    return records


def _print_table(records: list[dict], manager: SessionManager) -> None:
    header = (
        f"{'step':>4} | {'time':>8} | {'scored':>6} | "
        + " | ".join(f"{name:>10}" for name in EXPERT_CHARACTERISTICS)
    )
    print(header)
    print("-" * len(header))
    for record in records:
        cells = " | ".join(
            (
                f"{record.get(f'mean_{name}', float('nan')):>10.3f}"
                if f"mean_{name}" in record
                else f"{'-':>10}"
            )
            for name in EXPERT_CHARACTERISTICS
        )
        print(
            f"{record['step']:>4} | {record['stream_time']:>7.1f}s | "
            f"{record['n_scored']:>6} | {cells}"
        )
    stats = manager.stats()
    print(
        f"replayed {stats['n_events']} events / {stats['n_decisions']} decisions "
        f"across {stats['n_sessions']} sessions "
        f"({stats['n_evicted']} evicted, {stats['n_dirty']} still dirty)"
    )


def _replay_command(args: argparse.Namespace) -> int:
    if args.decisions_input and not args.input:
        raise SystemExit("--decisions-input requires --input")
    journal = None
    if args.journal:
        journal = obs.RunJournal(args.journal)
        obs.tracer().attach_journal(journal)
        journal.write("run.start", {"command": "replay", "scale": args.scale,
                                    "seed": args.seed, "steps": args.steps})
    try:
        return _run_replay(args, journal)
    finally:
        if journal is not None:
            obs.tracer().detach_journal()
            journal.write_metrics(obs.default_registry())
            journal.close()


def _run_replay(args: argparse.Namespace, journal=None) -> int:
    service = _build_service(args)
    quarantine = None
    workload_info = None
    if args.input:
        workload, quarantine, workload_info = _adapter_workload(args)
    else:
        workload = _workload(args.seed, args.sessions)
    if args.resume:
        if workload_info is not None:
            _check_resume_workload(args.resume, workload_info)
        manager = load_checkpoint(args.resume, service, quarantine=quarantine)
        if args.max_sessions is not None or args.idle_timeout is not None or args.reorder_window:
            warnings.warn(
                ReproRuntimeWarning(
                    "--resume restores the manager settings saved in the "
                    "checkpoint; --max-sessions/--idle-timeout/--reorder-window "
                    "flags are ignored"
                ),
                stacklevel=2,
            )
    else:
        manager = SessionManager(
            service,
            max_sessions=args.max_sessions,
            idle_timeout=args.idle_timeout,
            reorder_window=args.reorder_window,
            quarantine=quarantine,
        )
    records = _replay(
        manager,
        workload,
        steps=args.steps,
        report_every=args.report_every,
        runtime=args.runtime,
        stop_after=args.stop_after,
    )
    if args.format == "json":
        payload = {
            "scale": args.scale,
            "seed": args.seed,
            "resumed_from": args.resume,
            "workload": workload_info,
            "quarantined": quarantine.counts() if quarantine is not None else None,
            "reports": records,
            "stats": manager.stats(),
            "final_scores": {
                session_id: {
                    "labels": entry["labels"].tolist(),
                    "probabilities": entry["probabilities"].tolist(),
                }
                for session_id, entry in sorted(manager.scores().items())
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        _print_table(records, manager)
        if quarantine is not None:
            counts = quarantine.counts()
            by_reason = ", ".join(
                f"{reason}={n}" for reason, n in sorted(counts["by_reason"].items()) if n
            )
            print(
                f"quarantined {counts['total']} rows during adapter ingest"
                + (f" ({by_reason})" if by_reason else "")
            )
    if args.checkpoint:
        bundle = save_checkpoint(manager, args.checkpoint, workload=workload_info)
        manifest = read_checkpoint_manifest(bundle)
        print(f"saved {manifest['n_sessions']}-session checkpoint to {bundle}")
        print(f"  fingerprint: {manifest['fingerprint']}")
    return 0


def _inspect_command(args: argparse.Namespace) -> int:
    manifest = read_checkpoint_manifest(args.checkpoint)
    print(f"checkpoint:     {args.checkpoint}")
    print(f"format:         {manifest['format']} v{manifest['format_version']}")
    print(f"repro version:  {manifest.get('repro_version')}")
    print(f"sessions:       {manifest.get('n_sessions')} ({manifest.get('n_evicted')} evicted)")
    print(f"fingerprint:    {manifest.get('fingerprint')}")
    print(f"model:          {manifest.get('model_fingerprint') or '(in-memory model)'}")
    settings = manifest.get("manager", {})
    print(
        f"manager:        max_sessions={settings.get('max_sessions')}, "
        f"idle_timeout={settings.get('idle_timeout')}, "
        f"reorder_window={settings.get('reorder_window')}"
    )
    workload = manifest.get("workload")
    if workload:
        print(
            f"workload:       {workload.get('source')} "
            f"(trace v{workload.get('trace_version')}, "
            f"fingerprint {workload.get('fingerprint')})"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "replay":
        return _replay_command(args)
    return _inspect_command(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro.shard`` — operate a sharded serving fleet.

Three sub-commands:

``serve``
    Build a scoring service (artifact bundle or in-process tiny fit —
    the same loader as ``python -m repro.stream``), shard it across N
    workers and expose the asyncio ops surface
    (:mod:`repro.shard.ops`): ``/healthz``, ``/stats``, ``/ingest``,
    ``/recharacterize``, ``/checkpoint``, …
``replay``
    Drive a seeded synthetic workload through a fleet with the
    deterministic :class:`~repro.shard.replay.ReplayDriver`; with
    ``--verify`` the identical schedule also runs against a
    single-manager oracle and every report is checked **bitwise** —
    the equivalence harness as a command.
``inspect``
    Print a fleet checkpoint root's manifest and per-shard stores.

Examples (run with ``PYTHONPATH=src``):

.. code-block:: bash

    python -m repro.shard replay --scale tiny --sessions 24 --shards 3 --verify
    python -m repro.shard serve --scale tiny --shards 2 --port 8377
    python -m repro.shard inspect --checkpoint-root /tmp/fleet-ckpt
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.adapters.base import clock_skew_seconds
from repro.experiments.config import SCALE_NAMES
from repro.runtime import runtime_argument
from repro.shard.fleet import FLEET_MANIFEST_NAME, ShardFleet
from repro.shard.ops import OpsServer
from repro.shard.replay import ReplayDriver, synthetic_traces
from repro.stream.checkpoint import CheckpointStore
from repro.stream.session import SessionManager


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="Sharded live-serving fleet: serve, replay, inspect.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_fleet_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--bundle", default=None, metavar="DIR", help="model bundle to serve (default: fit a tiny model in process)")
        sub.add_argument("--scale", choices=SCALE_NAMES, default="tiny", help="in-process model scale")
        sub.add_argument("--seed", type=int, default=42, help="master random seed")
        sub.add_argument("--shards", type=int, default=2, help="number of shard workers")
        sub.add_argument("--ring-seed", type=int, default=0, help="consistent-hash ring seed")
        sub.add_argument("--queue-slots", type=int, default=256, help="per-shard dispatch queue capacity (batches)")
        sub.add_argument("--checkpoint-root", default=None, metavar="DIR", help="per-shard checkpoint stores + fleet manifest")
        sub.add_argument("--extract-runtime", type=runtime_argument, default=None, metavar="BACKEND[:N]", help="scoring runtime (serial or process[:N])")

    serve = commands.add_parser("serve", help="run the asyncio ops surface over a fleet")
    add_fleet_flags(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8377, help="bind port (0 = ephemeral)")

    replay = commands.add_parser("replay", help="replay a synthetic or adapter-ingested workload through a fleet")
    add_fleet_flags(replay)
    replay.add_argument("--sessions", type=int, default=24, help="synthetic sessions (ignored with --input)")
    replay.add_argument("--events", type=int, default=64, help="mouse events per session")
    replay.add_argument("--decisions", type=int, default=6, help="matching decisions per session")
    replay.add_argument("--input", default=None, metavar="FORMAT:PATH", help="replay an external trace file through an ingestion adapter instead of synthesizing")
    replay.add_argument("--recovery", choices=("skip", "repair", "abort"), default="skip", help="adapter recovery policy for rows failing validation")
    replay.add_argument("--clock-skew", type=clock_skew_seconds, default=1.0, metavar="SECONDS", help="per-session backwards-timestamp tolerance during adapter ingest")
    replay.add_argument("--steps", type=int, default=6, help="replay time windows")
    replay.add_argument("--report-every", type=int, default=2, metavar="K", help="recharacterize every K steps")
    replay.add_argument("--checkpoint-every-report", action="store_true", help="checkpoint all shards after each report (needs --checkpoint-root)")
    replay.add_argument("--verify", action="store_true", help="also replay a single-manager oracle and assert bitwise-equal reports")

    inspect = commands.add_parser("inspect", help="print a fleet checkpoint root's manifest")
    inspect.add_argument("--checkpoint-root", required=True, metavar="DIR", help="fleet checkpoint root")
    return parser


def _build_fleet(args: argparse.Namespace) -> ShardFleet:
    # Deferred: build_service pulls in the simulation/training stack.
    from repro.stream.cli import build_service

    service = build_service(args.bundle, scale=args.scale, seed=args.seed)
    return ShardFleet(
        service,
        args.shards,
        seed=args.ring_seed,
        queue_slots=args.queue_slots,
        checkpoint_root=args.checkpoint_root,
        extract_runtime=args.extract_runtime,
        # Adapter-ingested workloads get per-shard quarantine ledgers so
        # the ops /stats surface reports stream-level screening too.
        quarantine=True if getattr(args, "input", None) else None,
    )


def _serve_command(args: argparse.Namespace) -> int:
    fleet = _build_fleet(args)

    async def _run() -> None:
        server = OpsServer(fleet, host=args.host, port=args.port)
        await server.start()
        print(f"serving {fleet!r}")
        print(f"ops surface at {server.address} (GET /healthz, /stats, /scores)")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        fleet.close()
    return 0


def _adapter_traces(args: argparse.Namespace):
    """Read ``--input`` through the adapter registry; screened unless abort."""
    from repro.adapters import read_source, trace_fingerprint
    from repro.stream.quarantine import QuarantineLog

    quarantine = None if args.recovery == "abort" else QuarantineLog()
    traces = read_source(
        args.input,
        quarantine=quarantine,
        policy=args.recovery,
        clock_skew=args.clock_skew,
    )
    info = {"source": args.input, "fingerprint": trace_fingerprint(traces)}
    return traces, quarantine, info


def _replay_command(args: argparse.Namespace) -> int:
    fleet = _build_fleet(args)
    adapter_quarantine = None
    workload_info = None
    if args.input:
        traces, adapter_quarantine, workload_info = _adapter_traces(args)
    else:
        traces = synthetic_traces(
            args.sessions,
            seed=args.seed,
            n_events=args.events,
            n_decisions=args.decisions,
        )
    try:
        driver = ReplayDriver(
            fleet,
            traces,
            steps=args.steps,
            report_every=args.report_every,
            checkpoint=args.checkpoint_every_report,
        )
        reports = driver.run()
        final = driver.final_scores()
        payload = {
            "fleet": {"shards": fleet.n_shards, "sessions": len(fleet)},
            "workload": workload_info,
            "adapter_quarantine": (
                adapter_quarantine.counts() if adapter_quarantine is not None else None
            ),
            "replay": driver.summary.as_dict(),
            "reports": [
                {"scored": scores.n_matchers, "matcher_ids": list(scores.matcher_ids)[:4]}
                for scores in reports
            ],
            "final_scored": final.n_matchers,
            "stats": fleet.stats(),
        }
        if args.verify:
            oracle = SessionManager(fleet._primary)
            oracle_driver = ReplayDriver(
                oracle, traces, steps=args.steps, report_every=args.report_every
            )
            oracle_reports = oracle_driver.run()
            oracle_final = oracle_driver.final_scores()
            equal = len(reports) == len(oracle_reports) and all(
                ours.matcher_ids == theirs.matcher_ids
                and np.array_equal(ours.labels, theirs.labels)
                and np.array_equal(ours.probabilities, theirs.probabilities)
                for ours, theirs in zip(reports, oracle_reports)
            )
            equal = equal and (
                final.matcher_ids == oracle_final.matcher_ids
                and np.array_equal(final.probabilities, oracle_final.probabilities)
            )
            payload["verified_bitwise_equal"] = equal
            if not equal:
                print(json.dumps(payload, indent=2, default=str))
                print("VERIFY FAILED: fleet diverged from the single-manager oracle")
                return 1
        print(json.dumps(payload, indent=2, default=str))
        return 0
    finally:
        fleet.close()


def _inspect_command(args: argparse.Namespace) -> int:
    root = Path(args.checkpoint_root)
    manifest_path = root / FLEET_MANIFEST_NAME
    if not manifest_path.exists():
        print(f"no fleet manifest at {manifest_path}")
        return 1
    manifest = json.loads(manifest_path.read_text())
    print(f"fleet root:  {root}")
    print(f"router:      {manifest['router']}")
    print(f"clock:       {manifest.get('clock')}")
    for shard_dir in sorted(root.glob("shard-*")):
        store = CheckpointStore(shard_dir, keep=manifest.get("keep", 3))
        names = [path.name for path in store.checkpoints()]
        latest = store.latest_good()
        print(
            f"  {shard_dir.name}: {len(names)} checkpoint(s)"
            + (f", latest-good {latest.name}" if latest else "")
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "replay":
        return _replay_command(args)
    return _inspect_command(args)


if __name__ == "__main__":
    raise SystemExit(main())

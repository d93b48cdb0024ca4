"""Sharded live serving: consistent-hash session partitioning at fleet scale.

The :mod:`repro.shard` package scales the streaming session layer
(:mod:`repro.stream`) horizontally: a :class:`ShardRouter` consistent-hash
partitions session ids across N :class:`ShardWorker`\\ s — each owning a
private :class:`~repro.stream.SessionManager` over the one primary
:class:`~repro.serve.CharacterizationService` — behind a
:class:`ShardFleet` coordinator with bounded per-shard queues, explicit
backpressure, per-shard crash-safe checkpoints and live rebalancing.
A fleet-wide scoring pass is one ``score_batch`` call on that service.

The package's defining contract is **bitwise equivalence**: a fleet
replaying a workload is indistinguishable, score for score, from a
single ``SessionManager`` replaying the same events — for any shard
count, interleaving, rebalance, or injected shard death with checkpoint
restore.  :class:`ReplayDriver` drives both sides of that differential
test; ``python -m repro.shard`` serves, replays and inspects fleets
from the command line.
"""

from repro.shard.fleet import FLEET_MANIFEST_NAME, ShardDispatchError, ShardFleet
from repro.shard.ops import OpsServer
from repro.shard.replay import ReplayDriver, ReplaySummary, SessionTrace, synthetic_traces
from repro.shard.router import DEFAULT_REPLICAS, ShardRouter
from repro.shard.worker import (
    DEFAULT_QUEUE_SLOTS,
    ShardDeadError,
    ShardDeath,
    ShardWorker,
)

__all__ = [
    "DEFAULT_QUEUE_SLOTS",
    "DEFAULT_REPLICAS",
    "FLEET_MANIFEST_NAME",
    "OpsServer",
    "ReplayDriver",
    "ReplaySummary",
    "SessionTrace",
    "ShardDeadError",
    "ShardDeath",
    "ShardDispatchError",
    "ShardFleet",
    "ShardRouter",
    "ShardWorker",
    "synthetic_traces",
]

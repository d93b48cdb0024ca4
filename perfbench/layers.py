"""Which calls the traced run wraps, and the per-layer metrics built from them.

``LAYERS`` is the written-down prediction the benchmark is judged by:
for each layer (a ``src/repro`` module), its metrics, the end-to-end
metric a change to that layer should move, the workload doing most of
that layer's work, and the workloads on which no change is predicted.
It is copied into every result file so a later change can cite it.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from perfbench.measure import percentile, root_coverage, self_times
from perfbench.probes import Probe, Recorder


def _dirty_ratio(recorder: Recorder, args: tuple, result) -> None:
    recorder.add("scored", result.n_matchers)
    recorder.add("tracked", len(args[0]))


def _scored(recorder: Recorder, args: tuple, result) -> None:
    recorder.add("serve.matchers", result.n_matchers)


def _bundle_bytes(recorder: Recorder, args: tuple, result) -> None:
    recorder.add(
        "checkpoint.bytes", sum(p.stat().st_size for p in result.rglob("*") if p.is_file())
    )


def _task_count(recorder: Recorder, args: tuple, result) -> None:
    recorder.add("runtime.tasks", len(result))


def _cache_seen(recorder: Recorder, args: tuple, result) -> None:
    recorder.keep("cache", args[0])


_EXTRACTORS = {
    "lrsm": "repro.core.features.predictors:LRSMFeatures",
    "beh": "repro.core.features.behavioral:BehavioralFeatures",
    "mou": "repro.core.features.mouse:MouseFeatures",
    "seq": "repro.core.features.sequential:SequentialFeatures",
    "spa": "repro.core.features.spatial:SpatialFeatures",
}

#: Every call the traced run wraps.  Span names map to ``SELF_TIME``.
TRACE_PROBES: tuple[Probe, ...] = (
    Probe("repro.adapters.base:TraceFormat.read", "adapters.read"),
    Probe("repro.adapters.records:SessionTrace.to_matcher", "adapters.convert"),
    Probe("repro.stream.session:MatcherSession.ingest_events", "stream.ingest"),
    Probe("repro.stream.ingest:StreamingEventBuffer.extend", "stream.buffer"),
    Probe("repro.stream.ingest:StreamingEventBuffer.extend_screened", "stream.buffer"),
    Probe("repro.stream.ingest:StreamingEventBuffer.drain", "stream.buffer"),
    Probe("repro.stream.incremental:SessionFeatureState.update", "stream.features"),
    Probe("repro.stream.session:MatcherSession.matcher", "stream.materialize"),
    Probe("repro.stream.session:SessionManager.recharacterize", "stream.recharacterize",
          observe=_dirty_ratio),
    Probe("repro.shard.fleet:ShardFleet.ingest_events", "shard.dispatch"),
    Probe("repro.shard.fleet:ShardFleet.add_decision", "shard.dispatch"),
    # Routing runs ~9 times per dispatch: counted, not spanned, to keep
    # the tracing overhead down; its time stays in the callers' self time.
    Probe("repro.shard.router:ShardRouter.route", "shard.route", kind="count"),
    Probe("repro.shard.worker:ShardWorker.drain", "shard.drain"),
    Probe("repro.shard.replay:ReplayDriver.run", "shard.replay"),
    Probe("repro.shard.fleet:ShardFleet.recharacterize", "shard.recharacterize",
          observe=_dirty_ratio),
    Probe("repro.stream.checkpoint:CheckpointStore.save", "checkpoint.save",
          observe=_bundle_bytes),
    Probe("repro.stream.checkpoint:CheckpointStore.restore", "checkpoint.restore"),
    Probe("repro.serve.service:CharacterizationService.score_batch", "serve.score_batch",
          observe=_scored),
    Probe("repro.core.features.pipeline:FeaturePipeline.transform_blocks", "features.transform"),
    *(
        Probe(f"{target}.extract_batch", f"features.extract.{name}")
        for name, target in _EXTRACTORS.items()
    ),
    Probe("repro.core.features.cache:FeatureBlockCache.get_or_compute", "features.lookups",
          kind="count", observe=_cache_seen),
    Probe("repro.core.features.cache:FeatureBlockCache.get_or_fit", "features.fit_lookups",
          kind="count", observe=_cache_seen),
    Probe("repro.core.characterizer:MExICharacterizer.characterize", "ml.characterize"),
    Probe("repro.core.characterizer:MExICharacterizer.fit", "ml.fit"),
    Probe("repro.ml.tree:DecisionTreeClassifier.fit", "ml.tree_fit"),
    Probe("repro.nn.network:Sequential.fit", "nn.fit"),
    Probe("repro.stats.bootstrap:two_sample_bootstrap_test", "stats.bootstrap"),
    Probe("repro.runtime.runner:TaskRunner.map", "runtime.map", observe=_task_count,
          task_arg=1),
    Probe("repro.obs.tracing:trace_span", "obs.spans", kind="count"),
    Probe("repro.obs.registry:obs_enabled", "obs.mode_checks", kind="count"),
)

#: Span name -> per-layer metric holding its summed self time.
SELF_TIME: dict[str, str] = {
    "adapters.read": "adapters.read_s",
    "adapters.convert": "adapters.convert_s",
    "stream.ingest": "stream.ingest_s",
    "stream.buffer": "stream.buffer_s",
    "stream.features": "stream.features_s",
    "stream.materialize": "stream.materialize_s",
    "stream.recharacterize": "stream.recharacterize_s",
    "shard.dispatch": "shard.dispatch_s",
    "shard.drain": "shard.drain_s",
    "shard.replay": "shard.replay_self_s",
    "shard.recharacterize": "shard.recharacterize_s",
    "checkpoint.save": "checkpoint.save_s",
    "checkpoint.restore": "checkpoint.restore_s",
    "serve.score_batch": "serve.score_batch_s",
    "features.transform": "features.transform_s",
    **{f"features.extract.{name}": f"features.extract_s.{name}" for name in _EXTRACTORS},
    "ml.characterize": "ml.characterize_s",
    "ml.fit": "ml.fit_s",
    "ml.tree_fit": "ml.tree_fit_s",
    "nn.fit": "nn.fit_s",
    "stats.bootstrap": "stats.bootstrap_s",
    "runtime.map": "runtime.map_self_s",
    "runtime.task": "runtime.task_self_s",
}

#: Span or counted-probe name -> per-layer metric holding its call count.
CALLS: dict[str, str] = {
    "stream.ingest": "stream.ingest_calls",
    "shard.dispatch": "shard.dispatch_calls",
    "shard.route": "shard.route_calls",
    "checkpoint.save": "checkpoint.saves",
    "checkpoint.restore": "checkpoint.restores",
    "serve.score_batch": "serve.batches",
    "ml.tree_fit": "ml.trees_fit",
    "nn.fit": "nn.fit_calls",
    "runtime.map": "runtime.map_calls",
}

#: Every per-layer metric: ``(name, unit, better)``.  Times are self
#: times per pass (median over traced passes).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((metric, "s", "lower") for metric in SELF_TIME.values()),
    *((metric, "count", "lower") for metric in CALLS.values()),
    ("adapters.rows", "count", "higher"),
    ("adapters.quarantined", "count", "lower"),
    ("adapters.rows_per_s", "1/s", "higher"),
    ("stream.dirty_ratio", "ratio", "lower"),
    ("stream.ingest_us_p50", "us", "lower"),
    ("stream.ingest_us_p90", "us", "lower"),
    ("stream.ingest_samples", "count", "higher"),
    ("shard.routes_per_dispatch", "ratio", "lower"),
    ("shard.rejected_batches", "count", "lower"),
    ("shard.redelivered_events", "count", "lower"),
    ("shard.deaths", "count", "lower"),
    ("shard.restores", "count", "lower"),
    ("shard.skew", "ratio", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("serve.matchers", "count", "lower"),
    ("features.cache_hit_ratio", "ratio", "higher"),
    ("features.fit_hit_ratio", "ratio", "higher"),
    ("runtime.tasks", "count", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.mode_checks_per_event", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
)

#: The layer table: metrics, what they should move, and where.
LAYERS: tuple[dict, ...] = (
    {"layer": "adapters",
     "metrics": ["adapters.read_s", "adapters.convert_s", "adapters.rows",
                 "adapters.quarantined", "adapters.rows_per_s"],
     "moves": ["matchers_per_s", "wall_s"],
     "most_work": ["batch-score"],
     "no_change": ["stream-score", "fleet-ingest", "train-identify"]},
    {"layer": "stream",
     "metrics": ["stream.ingest_calls", "stream.ingest_s", "stream.buffer_s",
                 "stream.features_s", "stream.materialize_s", "stream.recharacterize_s",
                 "stream.dirty_ratio", "stream.ingest_us_p50", "stream.ingest_us_p90"],
     "moves": ["stream.ingest_us_p50", "stream.ingest_us_p90", "events_per_s"],
     "most_work": ["fleet-ingest", "stream-score"],
     "no_change": ["batch-score", "train-identify"]},
    {"layer": "shard",
     "metrics": ["shard.dispatch_calls", "shard.dispatch_s", "shard.route_calls",
                 "shard.routes_per_dispatch", "shard.drain_s",
                 "shard.replay_self_s", "shard.recharacterize_s", "shard.rejected_batches",
                 "shard.redelivered_events", "shard.deaths", "shard.restores", "shard.skew"],
     "moves": ["stream.ingest_us_p50", "stream.ingest_us_p90", "events_per_s"],
     "most_work": ["fleet-ingest"],
     "no_change": ["stream-score", "batch-score", "train-identify"]},
    {"layer": "stream.checkpoint",
     "metrics": ["checkpoint.saves", "checkpoint.save_s", "checkpoint.bytes",
                 "checkpoint.restores", "checkpoint.restore_s"],
     "moves": ["wall_s", "events_per_s"],
     "most_work": ["fleet-ingest"],
     "no_change": ["stream-score", "batch-score", "train-identify"]},
    {"layer": "serve",
     "metrics": ["serve.batches", "serve.matchers", "serve.score_batch_s"],
     "moves": ["report_ms_p50", "matchers_per_s"],
     "most_work": ["stream-score", "batch-score"],
     "no_change": ["train-identify"]},
    {"layer": "core.features",
     "metrics": ["features.transform_s", *(f"features.extract_s.{n}" for n in _EXTRACTORS),
                 "features.cache_hit_ratio", "features.fit_hit_ratio"],
     "moves": ["report_ms_p50 on stream-score", "matchers_per_s on batch-score",
               "wall_s on train-identify"],
     "most_work": ["stream-score"],
     "no_change": ["fleet-ingest"]},
    {"layer": "core.characterizer+ml",
     "metrics": ["ml.characterize_s", "ml.fit_s", "ml.tree_fit_s", "ml.trees_fit"],
     "moves": ["report_ms_p50", "wall_s on train-identify", "setup_s elsewhere"],
     "most_work": ["train-identify"],
     "no_change": ["fleet-ingest"]},
    {"layer": "nn+stats",
     "metrics": ["nn.fit_calls", "nn.fit_s", "stats.bootstrap_s"],
     "moves": ["wall_s"],
     "most_work": ["train-identify"],
     "no_change": ["stream-score", "fleet-ingest", "batch-score"]},
    {"layer": "runtime",
     "metrics": ["runtime.map_calls", "runtime.tasks", "runtime.map_self_s",
                 "runtime.task_self_s"],
     "moves": ["wall_s on train-identify", "report_ms_p50"],
     "most_work": ["train-identify"],
     "no_change": ["fleet-ingest"]},
    {"layer": "obs",
     "metrics": ["obs.spans", "obs.mode_checks_per_event"],
     "moves": ["stream.ingest_us_p50", "events_per_s"],
     "most_work": ["fleet-ingest"],
     "no_change": ["train-identify"]},
)


def layer_metrics(
    recorder: Recorder, start: float, end: float, info: dict, n_events: int
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``info``: workload-side tallies)."""
    spans = recorder.spans()
    own = self_times(spans)
    calls = Counter(span.name for span in spans)
    counts = recorder.counts
    metrics = {metric: own.get(span, 0.0) for span, metric in SELF_TIME.items()}
    calls.update(counts)
    metrics.update({metric: float(calls.get(name, 0)) for name, metric in CALLS.items()})
    read_seconds = sum(span.duration for span in spans if span.name == "adapters.read")
    rows = float(info.get("adapters.rows", 0))
    metrics["adapters.rows"] = rows
    metrics["adapters.quarantined"] = float(info.get("adapters.quarantined", 0))
    metrics["adapters.rows_per_s"] = rows / read_seconds if read_seconds else 0.0
    tracked = counts.get("tracked", 0)
    metrics["stream.dirty_ratio"] = counts.get("scored", 0) / tracked if tracked else 0.0
    dispatches = calls.get("shard.dispatch", 0)
    metrics["shard.routes_per_dispatch"] = (
        calls.get("shard.route", 0) / dispatches if dispatches else 0.0
    )
    for name in ("rejected_batches", "redelivered_events", "deaths", "restores", "skew"):
        metrics[f"shard.{name}"] = float(info.get(f"shard.{name}", 0))
    metrics["checkpoint.bytes"] = float(counts.get("checkpoint.bytes", 0))
    metrics["serve.matchers"] = float(counts.get("serve.matchers", 0))
    caches = list(recorder.objects.get("cache", {}).values())
    hits = sum(cache.hits for cache in caches)
    lookups = hits + sum(cache.misses for cache in caches)
    fit_hits = sum(cache.fit_hits for cache in caches)
    fit_lookups = fit_hits + sum(cache.fit_misses for cache in caches)
    metrics["features.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["features.fit_hit_ratio"] = fit_hits / fit_lookups if fit_lookups else 0.0
    metrics["runtime.tasks"] = float(counts.get("runtime.tasks", 0))
    metrics["obs.spans"] = float(counts.get("obs.spans", 0))
    metrics["obs.mode_checks_per_event"] = (
        counts.get("obs.mode_checks", 0) / n_events if n_events else 0.0
    )
    metrics["trace.coverage"] = root_coverage(spans, start, end)
    metrics["trace.wall_s"] = end - start
    return metrics


def ingest_latency(samples: Sequence[float]) -> dict[str, float]:
    """Ingest-call latency percentiles (µs) with their sample count."""
    p50, p90 = percentile(samples, 50), percentile(samples, 90)
    return {
        "stream.ingest_us_p50": p50.value * 1e6,
        "stream.ingest_us_p90": p90.value * 1e6,
        "stream.ingest_samples": float(p50.count),
    }

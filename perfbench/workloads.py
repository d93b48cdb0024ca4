"""The four benchmark workloads and the checks on their outputs.

Each workload is driven by one closed-loop client in this process: the
next call into the program is made only after the previous one returned.
A workload builds its inputs from the seed in :meth:`setup`, replays them
once per :meth:`run_pass` (the only timed code), and verifies every
pass's outputs in :meth:`check`, after the timed phase.

The served model is part of the system under test, not of the input: it
is fitted from the fixed ``tiny`` experiment scale, so every seed scores
against the same model.  ``train-identify`` trains on the fixed
``bench_config`` cohort whatever the seed (see :class:`TrainIdentify`).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.adapters import read_source, trace_fingerprint, trace_from_matcher
from repro.adapters.jsonl_events import JsonlTraceFormat
from repro.core.features.cache import FeatureBlockCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.identification import ACCURACY_MEASURES, run_identification_experiment
from repro.runtime.faults import injected
from repro.serve.service import BatchScores, CharacterizationService
from repro.shard import ReplayDriver, ShardFleet, synthetic_traces
from repro.simulation.archetypes import Archetype
from repro.simulation.corruption import write_corrupted_trace
from repro.simulation.dataset import build_dataset
from repro.simulation.population import simulate_population
from repro.simulation.schemas import build_po_task
from repro.stream import SessionManager
from repro.stream.cli import build_service
from repro.stream.quarantine import QuarantineLog



@dataclass
class PassResult:
    """What one timed pass produced."""

    start: float
    end: float
    digest: str
    outcome: object = None
    #: Per-layer tallies only the workload can see (fleet counters, …).
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class CheckReport:
    """Per-pass failed-result counts (``attempted`` results per pass)."""

    per_pass: int
    failed: list[int]
    notes: list[str] = field(default_factory=list)


def scores_digest(scores: BatchScores) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update("\n".join(scores.matcher_ids).encode())
    digest.update(np.ascontiguousarray(scores.labels, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(scores.probabilities, dtype=np.float64).tobytes())
    return digest.hexdigest()


def mismatched_rows(scores: BatchScores, reference: BatchScores) -> int:
    """Rows of ``scores`` not bitwise equal to the reference (all, if ids differ)."""
    if tuple(scores.matcher_ids) != tuple(reference.matcher_ids):
        return len(reference.matcher_ids)
    same = np.all(scores.labels == reference.labels, axis=1) & np.all(
        scores.probabilities == reference.probabilities, axis=1
    )
    return int(np.count_nonzero(~same))


def fresh_service(model) -> CharacterizationService:
    """A service on the shared model with an empty feature cache."""
    return CharacterizationService(model, cache=FeatureBlockCache())


def served_model():
    """The model every serving workload scores with (fitted at ``tiny`` scale)."""
    return build_service(scale="tiny").model


class Workload:
    """Interface of a workload (see the module docstring)."""

    name = ""
    why = ""
    #: ``probes`` targets timed at the caller in untraced passes.
    ingest_target: Optional[str] = None
    report_target = ""

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def run_pass(self, state, index: int) -> PassResult:
        raise NotImplementedError

    def check(self, state, results: list[PassResult]) -> CheckReport:
        raise NotImplementedError

    def size(self, state) -> tuple[int, int]:
        """``(distinct input events, distinct matchers)`` of one pass."""
        raise NotImplementedError


@dataclass
class ReplayState:
    model: object
    traces: list
    workdir: Path


class StreamScore(Workload):
    """A bare ``SessionManager`` replaying synthetic sessions, scored every window."""

    name = "stream-score"
    why = (
        "live-report path: bare SessionManager, recharacterize after every window; "
        "mostly score_batch feature extraction and session ingest"
    )
    ingest_target = "repro.stream.session:SessionManager.ingest_events"
    report_target = "repro.stream.session:SessionManager.recharacterize"

    def __init__(self, sessions: int = 300, steps: int = 8) -> None:
        self.sessions = sessions
        self.steps = steps

    def setup(self, seed: int, workdir: Path) -> ReplayState:
        model = served_model()
        traces = synthetic_traces(self.sessions, seed=seed, n_events=64, n_decisions=6)
        return ReplayState(model, traces, workdir)

    def size(self, state: ReplayState) -> tuple[int, int]:
        return sum(trace.n_events for trace in state.traces), len(state.traces)

    def run_pass(self, state: ReplayState, index: int) -> PassResult:
        manager = SessionManager(fresh_service(state.model))
        driver = ReplayDriver(manager, state.traces, steps=self.steps, report_every=1)
        start = time.perf_counter()
        driver.run()
        final = driver.final_scores()
        end = time.perf_counter()
        return PassResult(start, end, scores_digest(final), final)

    def reference(self, state: ReplayState) -> BatchScores:
        """One cold ``score_batch`` of every trace: what the replay must converge to."""
        return fresh_service(state.model).score_batch(
            [trace.to_matcher() for trace in state.traces]
        )

    def check(self, state: ReplayState, results: list[PassResult]) -> CheckReport:
        reference = self.reference(state)
        return CheckReport(
            len(state.traces),
            [mismatched_rows(result.outcome, reference) for result in results],
        )


class FleetIngest(StreamScore):
    """The same sessions through a checkpointing 4-shard fleet with one scripted death."""

    name = "fleet-ingest"
    why = (
        "per-event dispatch path: 4-shard ShardFleet, ~2 events per dispatch, checkpoints "
        "and one scripted shard death with restore and redelivery"
    )
    ingest_target = "repro.shard.fleet:ShardFleet.ingest_events"
    report_target = "repro.shard.fleet:ShardFleet.recharacterize"
    #: Shard 2 dies at logical clock 20, after the first checkpoint (window 16).
    death_plan = "shard.death:keys=2@20;seed=0"

    def __init__(self, sessions: int = 200, steps: int = 32, report_every: int = 16) -> None:
        super().__init__(sessions, steps)
        self.report_every = report_every

    def run_pass(self, state: ReplayState, index: int) -> PassResult:
        root = state.workdir / f"fleet-{index}"
        shutil.rmtree(root, ignore_errors=True)
        fleet = ShardFleet(
            fresh_service(state.model),
            4,
            seed=0,
            checkpoint_root=root,
            extract_runtime="serial",
        )
        try:
            driver = ReplayDriver(
                fleet,
                state.traces,
                steps=self.steps,
                report_every=self.report_every,
                checkpoint=True,
            )
            start = time.perf_counter()
            with injected(self.death_plan):
                driver.run()
            final = driver.final_scores()
            end = time.perf_counter()
            stats = fleet.stats()
        finally:
            fleet.close()
            shutil.rmtree(root, ignore_errors=True)
        totals = stats["totals"]
        sessions = [entry["manager"]["n_sessions"] for entry in stats["shards"] if entry["manager"]]
        n_events = sum(trace.n_events for trace in state.traces)
        info = {
            "shard.rejected_batches": totals["rejected_batches"],
            "shard.redelivered_events": driver.summary.delivered_events - n_events,
            "shard.deaths": totals["deaths"],
            "shard.restores": totals["restores"],
            "shard.skew": max(sessions) / (sum(sessions) / len(sessions)) if sessions else 0.0,
        }
        return PassResult(start, end, scores_digest(final), final, info)

    def check(self, state: ReplayState, results: list[PassResult]) -> CheckReport:
        report = super().check(state, results)
        for position, result in enumerate(results):
            if result.info.get("shard.deaths") != 1 or result.info.get("shard.restores") != 1:
                report.failed[position] = report.per_pass
                report.notes.append(
                    f"pass {position}: {result.info.get('shard.deaths')} deaths and "
                    f"{result.info.get('shard.restores')} restores, expected 1 and 1"
                )
        return report


@dataclass
class BatchState:
    model: object
    path: Path
    rows: int
    expected_quarantine: dict
    clean_fingerprint: str
    clean_traces: list


class BatchScore(Workload):
    """Screened read of a hostile JSONL cohort file, then one cold ``score_batch``."""

    name = "batch-score"
    why = (
        "offline cohort filtering: screened JSONL adapter parse of a hostile file, "
        "to_matcher, one cold score_batch; long persona traces"
    )
    report_target = "repro.serve.service:CharacterizationService.score_batch"

    def __init__(self, matchers: int = 200, damaged: int = 12) -> None:
        self.matchers = matchers
        self.damaged = damaged

    def setup(self, seed: int, workdir: Path) -> BatchState:
        model = served_model()
        pair, reference = build_po_task()
        cohort = simulate_population(
            pair,
            reference,
            n_matchers=self.matchers,
            archetypes=[Archetype.A, Archetype.B, Archetype.C, Archetype.D],
            random_state=seed,
            id_prefix="cohort",
        )
        traces = [trace_from_matcher(matcher) for matcher in cohort]
        # The corruption writer rescans earlier rows per candidate
        # (quadratic in rows), so only a small slice is damaged; the rest
        # of the cohort is written clean and appended to the same file.
        damaged_part = workdir / "damaged.jsonl"
        clean_part = workdir / "clean.jsonl"
        report = write_corrupted_trace(traces[: self.damaged], damaged_part, "jsonl", seed=seed)
        JsonlTraceFormat.write(clean_part, traces[self.damaged :])
        path = workdir / "cohort.jsonl"
        with path.open("wb") as out:
            for part in (damaged_part, clean_part):
                with part.open("rb") as source:
                    shutil.copyfileobj(source, out)
                part.unlink()
        with path.open("rb") as source:
            rows = sum(1 for _ in source)
        clean = report.clean_traces(traces[: self.damaged]) + traces[self.damaged :]
        return BatchState(
            model, path, rows, report.expected_counts(), trace_fingerprint(clean), clean
        )

    def size(self, state: BatchState) -> tuple[int, int]:
        return sum(trace.n_events for trace in state.clean_traces), len(state.clean_traces)

    def run_pass(self, state: BatchState, index: int) -> PassResult:
        quarantine = QuarantineLog()
        start = time.perf_counter()
        traces = read_source(f"jsonl:{state.path}", quarantine=quarantine, policy="skip")
        matchers = [trace.to_matcher() for trace in traces]
        scores = fresh_service(state.model).score_batch(matchers)
        end = time.perf_counter()
        ledger = {reason: count for reason, count in quarantine.counts()["by_reason"].items() if count}
        fingerprint = trace_fingerprint(traces)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(scores_digest(scores).encode())
        digest.update(json.dumps(ledger, sort_keys=True).encode())
        digest.update(fingerprint.encode())
        info = {"adapters.rows": state.rows, "adapters.quarantined": sum(ledger.values())}
        return PassResult(start, end, digest.hexdigest(), (scores, ledger, fingerprint), info)

    def check(self, state: BatchState, results: list[PassResult]) -> CheckReport:
        reference = fresh_service(state.model).score_batch(
            [trace.to_matcher() for trace in state.clean_traces]
        )
        expected = {reason: count for reason, count in state.expected_quarantine.items() if count}
        report = CheckReport(len(state.clean_traces), [])
        for position, result in enumerate(results):
            scores, ledger, fingerprint = result.outcome
            failed = mismatched_rows(scores, reference)
            if ledger != expected:
                report.notes.append(f"pass {position}: quarantine {ledger} != expected {expected}")
                failed = report.per_pass
            if fingerprint != state.clean_fingerprint:
                report.notes.append(f"pass {position}: survivors differ from the clean traces")
                failed = report.per_pass
            report.failed.append(failed)
        return report


@dataclass
class TrainState:
    config: ExperimentConfig
    matchers: list


def table_digest(result) -> str:
    """Bitwise digest of a Table IIa result: every per-fold accuracy and flag."""
    digest = hashlib.blake2b(digest_size=16)
    for method in result.methods:
        digest.update(method.method.encode())
        for measure in ACCURACY_MEASURES:
            values = np.asarray(method.per_fold_accuracies[measure], dtype=np.float64)
            digest.update(values.tobytes())
            digest.update(b"1" if method.significant.get(measure) else b"0")
    return digest.hexdigest()


class TrainIdentify(Workload):
    """The Table IIa k-fold identification experiment at the reduced bench scale.

    Its input is the fixed ``bench_config`` cohort (random state 42) of
    the experiment benchmarks, not one drawn from the seed: how long the
    experiment takes depends on which classifiers training selects, and
    cohorts drawn from different seeds differed by 40% in run time, far
    more than the changes the benchmark must resolve.
    """

    name = "train-identify"
    why = (
        "research path reproducing Table IIa: the only workload fitting ml, nn and stats, "
        "with feature-cache reuse across folds"
    )
    report_target = "repro.core.characterizer:MExICharacterizer.characterize"
    #: Variants every Table IIa must contain.
    variants = ("MExI_empty", "MExI_50", "MExI_70")
    random_state = 42

    def __init__(
        self,
        n_po: int = 20,
        n_folds: int = 2,
        pinned_digest: Optional[str] = "8ca878f04618e7c9c7fd0e3292dc5f85",
    ) -> None:
        """``pinned_digest``: the :func:`table_digest` Table IIa must match."""
        self.n_po = n_po
        self.n_folds = n_folds
        self.pinned_digest = pinned_digest

    def setup(self, seed: int, workdir: Path) -> TrainState:
        config = ExperimentConfig(
            n_po_matchers=self.n_po,
            n_oaei_matchers=12,
            n_folds=self.n_folds,
            n_bootstrap=300,
            random_state=self.random_state,
            use_neural_features=True,
            neural_config={
                "seq": {"hidden_dim": 6, "dense_dim": 8, "max_sequence_length": 24, "epochs": 3},
                "spa": {"n_filters": 2, "epochs": 1, "pretrain_samples": 16},
            },
        )
        # The same cohort run_identification_experiment would simulate itself.
        dataset = build_dataset(
            n_po_matchers=config.n_po_matchers, n_oaei_matchers=2, random_state=self.random_state
        )
        return TrainState(config, list(dataset.po_matchers))

    def size(self, state: TrainState) -> tuple[int, int]:
        return sum(len(matcher.movement) for matcher in state.matchers), len(state.matchers)

    def run_pass(self, state: TrainState, index: int) -> PassResult:
        start = time.perf_counter()
        result = run_identification_experiment(state.config, matchers=state.matchers)
        end = time.perf_counter()
        return PassResult(start, end, table_digest(result), result)

    def check(self, state: TrainState, results: list[PassResult]) -> CheckReport:
        report = CheckReport(1, [])
        pinned = self.pinned_digest
        for position, result in enumerate(results):
            problems = []
            methods = {method.method: method for method in result.outcome.methods}
            missing = [name for name in self.variants if name not in methods]
            if missing:
                problems.append(f"missing variants {missing}")
            for method in methods.values():
                values = [v for fold in method.per_fold_accuracies.values() for v in fold]
                values += list(method.mean_accuracies.values())
                if not all(0.0 <= value <= 1.0 for value in values):
                    problems.append(f"{method.method} accuracy outside [0, 1]")
            if pinned is not None and result.digest != pinned:
                problems.append(f"digest {result.digest} != pinned {pinned}")
            if result.digest != results[0].digest:
                problems.append("digest differs from the first pass")
            report.notes.extend(f"pass {position}: {problem}" for problem in problems)
            report.failed.append(1 if problems else 0)
        return report


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (StreamScore, FleetIngest, BatchScore, TrainIdentify)
}

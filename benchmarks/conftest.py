"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (so the whole harness stays laptop-runnable) and prints the rows the
paper reports.  `run_once` wraps ``benchmark.pedantic`` so each experiment
executes exactly once per benchmark (these are end-to-end experiments, not
micro-benchmarks).

The per-domain timing registries are flushed at session end to
``.bench_out/pytest/BENCH_<domain>.json`` (untracked; a test run never
rewrites a tracked file), for example:

* ``stage_timings`` -> ``BENCH_features.json`` — per-stage feature-engine
  wall-clock (extraction, fit, ablation);
* ``runtime_timings`` -> ``BENCH_runtime.json`` — per-backend wall-clock of
  the parallel training runtime (forest fit, identification folds,
  11-configuration ablation) plus the measured speedups.

The end-to-end performance trajectory is ``perfbench/``.  Every payload
carries the machine context needed to interpret the numbers:
Python version, architecture, ``os.cpu_count()`` and the active
``REPRO_RUNTIME`` backend (the runtime benchmark pins backends explicitly;
everything else runs on the environment default).
"""

import json
import os
import platform
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig
from repro.runtime import RUNTIME_ENV_VAR
from repro.runtime.faults import FAULTS_ENV_VAR

#: Stage name -> seconds, populated by benchmarks through `stage_timings`.
_STAGE_TIMINGS: dict[str, float] = {}

#: Measurement name -> value, populated through `runtime_timings`.
_RUNTIME_TIMINGS: dict[str, float] = {}

#: Untracked directory the session hook writes the registries to.
BENCH_OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out" / "pytest"

#: Measurement name -> value, populated through `serve_timings`.
_SERVE_TIMINGS: dict[str, float] = {}

#: Measurement name -> value, populated through `stream_timings`.
_STREAM_TIMINGS: dict[str, float] = {}

#: Measurement name -> value, populated through `memory_timings`.
_MEMORY_TIMINGS: dict[str, float] = {}

#: Measurement name -> value, populated through `fault_timings`.
_FAULT_TIMINGS: dict[str, float] = {}

#: Measurement name -> value, populated through `shard_timings`.
_SHARD_TIMINGS: dict[str, float] = {}

#: Measurement name -> value, populated through `ingest_timings`.
_INGEST_TIMINGS: dict[str, float] = {}

#: Measurement name -> value, populated through `obs_timings`.
_OBS_TIMINGS: dict[str, float] = {}


def _machine_metadata() -> dict:
    """Context every benchmark JSON records alongside its numbers."""
    fault_plan = os.environ.get(FAULTS_ENV_VAR) or None
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "runtime_backend_env": os.environ.get(RUNTIME_ENV_VAR) or "serial",
        # Chaos context: numbers taken under an injected fault plan are
        # not comparable to clean-run trajectories, so every BENCH_*.json
        # records which plan (if any) the session ran under.
        "fault_plan": fault_plan,
        "faults_active": fault_plan is not None,
    }


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Reduced-scale configuration shared by all table/figure benchmarks."""
    return ExperimentConfig(
        n_po_matchers=30,
        n_oaei_matchers=12,
        n_folds=3,
        n_bootstrap=300,
        random_state=42,
        use_neural_features=True,
        neural_config={
            "seq": {"hidden_dim": 6, "dense_dim": 8, "max_sequence_length": 24, "epochs": 3},
            "spa": {"n_filters": 2, "epochs": 1, "pretrain_samples": 16},
        },
    )


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture(scope="session")
def stage_timings() -> dict[str, float]:
    """Mutable registry of per-stage timings, flushed at session end."""
    return _STAGE_TIMINGS


@pytest.fixture(scope="session")
def runtime_timings() -> dict[str, float]:
    """Mutable registry of per-backend runtime timings, flushed at session end."""
    return _RUNTIME_TIMINGS


@pytest.fixture(scope="session")
def serve_timings() -> dict[str, float]:
    """Mutable registry of artifact/serving timings, flushed at session end."""
    return _SERVE_TIMINGS


@pytest.fixture(scope="session")
def stream_timings() -> dict[str, float]:
    """Mutable registry of streaming-layer timings, flushed at session end."""
    return _STREAM_TIMINGS


@pytest.fixture(scope="session")
def memory_timings() -> dict[str, float]:
    """Mutable registry of artifact-load timings, flushed at session end."""
    return _MEMORY_TIMINGS


@pytest.fixture(scope="session")
def fault_timings() -> dict[str, float]:
    """Mutable registry of fault-tolerance timings, flushed at session end."""
    return _FAULT_TIMINGS


@pytest.fixture(scope="session")
def shard_timings() -> dict[str, float]:
    """Mutable registry of sharded-serving timings, flushed at session end."""
    return _SHARD_TIMINGS


@pytest.fixture(scope="session")
def ingest_timings() -> dict[str, float]:
    """Mutable registry of adapter-ingestion timings, flushed at session end."""
    return _INGEST_TIMINGS


@pytest.fixture(scope="session")
def obs_timings() -> dict[str, float]:
    """Mutable registry of telemetry-overhead timings, flushed at session end."""
    return _OBS_TIMINGS


def _flush_timings(registry: dict[str, float], key: str, domain: str) -> None:
    if not registry:
        return
    payload = {
        "scale": "reduced",
        **_machine_metadata(),
        key: {name: round(value, 4) for name, value in sorted(registry.items())},
    }
    BENCH_OUT_DIR.mkdir(parents=True, exist_ok=True)
    (BENCH_OUT_DIR / f"BENCH_{domain}.json").write_text(json.dumps(payload, indent=2) + "\n")


def pytest_sessionfinish(session, exitstatus):
    """Persist the benchmark timing registries under ``.bench_out/pytest``."""
    if exitstatus != 0:
        return
    _flush_timings(_STAGE_TIMINGS, "stages_seconds", "features")
    _flush_timings(_RUNTIME_TIMINGS, "measurements", "runtime")
    _flush_timings(_SERVE_TIMINGS, "measurements", "serve")
    _flush_timings(_STREAM_TIMINGS, "measurements", "stream")
    _flush_timings(_MEMORY_TIMINGS, "measurements", "memory")
    _flush_timings(_FAULT_TIMINGS, "measurements", "faults")
    _flush_timings(_SHARD_TIMINGS, "measurements", "shard")
    _flush_timings(_INGEST_TIMINGS, "measurements", "ingest")
    _flush_timings(_OBS_TIMINGS, "measurements", "obs")

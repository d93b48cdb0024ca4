"""One end-to-end benchmark of MExI serving and training.

Run from the repository root::

    python3 perfbench/run.py --workload stream-score --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: ``stream-score``, ``fleet-ingest``, ``batch-score`` and
``train-identify`` (see ``perfbench/workloads.py`` for what each drives
and why).  A run is one fresh process: it builds the workload from the
seed three times, then replays it in passes until ``--seconds`` have
elapsed, then checks every pass's outputs against a reference computed
outside the timed phase.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (imports plus
the median set-up), ``wall_s`` (the median pass), ``matchers_per_s``
(distinct matchers over ``wall_s``) and ``peak_rss_mb``.  Times are in
reference seconds: each is scaled by a calibration kernel timed around
it (``perfbench.measure.Calibrator``), because the shared host's speed
drifts far more between runs than the changes the benchmark must see;
the raw seconds are printed and saved beside them.  Figures that move
with the seed as well as with the code — events per second, the report
latency, ingest-call latency percentiles with their sample counts, the
error rate — are printed and saved but not gated.  ``--trace 1`` first
runs untraced passes for half the time, then traced passes — each
layer's public calls wrapped in spans (``perfbench/layers.py``) — for
the other half, and prints the per-layer metrics (medians over traced
passes), the share of the pass the spans cover and the tracing
overhead.  Traced passes must reproduce the untraced outputs bitwise.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and
traced spans are also written under ``.bench_out/`` (untracked).  The
program runs with its shipped defaults; a run under an ambient
``REPRO_FAULTS`` plan is refused, because its numbers are not comparable.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stream-score", "fleet-ingest", "batch-score", "train-identify")
#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: End-to-end metrics: ``(name, unit)``.  Bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("matchers_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Refused when set: chaos plans make numbers incomparable.
FAULTS_ENV_VAR = "REPRO_FAULTS"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def refusal() -> str | None:
    """Why this checkout or environment cannot be benchmarked, if it cannot."""
    if os.environ.get(FAULTS_ENV_VAR):
        return (
            f"refusing to run under an ambient {FAULTS_ENV_VAR} plan "
            f"({os.environ[FAULTS_ENV_VAR]!r}): its numbers are not comparable"
        )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing"
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def provenance(seed: int) -> dict:
    """Everything a number depends on besides the code: host, versions, modes."""
    import numpy

    from repro.kernels import active_kernels
    from repro.obs import obs_enabled
    from repro.runtime import resolve_runner

    runner = resolve_runner(None)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "REPRO_RUNTIME": f"{runner.backend}:{runner.max_workers}",
        "REPRO_KERNELS": active_kernels(),
        "REPRO_OBS": "on" if obs_enabled() else "off",
        "REPRO_SHM_BACKEND": os.environ.get("REPRO_SHM_BACKEND") or "auto",
        "REPRO_SIM_ENGINE": os.environ.get("REPRO_SIM_ENGINE") or "columnar",
        "REPRO_FAULTS": None,
    }


def measure_passes(workload, state, seconds: float, probes, calibrator):
    """Replay passes until ``seconds`` have elapsed (at least one attempt).

    Returns ``(passes, raised)``: each completed pass as ``(result,
    recorder, kernel_s)``, where ``kernel_s`` is the mean calibration
    kernel time just before and just after it, and the number of passes
    that raised — a raising pass is a failed operation to count, not a
    reason to stop measuring.
    """
    from perfbench.probes import Recorder, installed

    passes, raised = [], 0
    before = calibrator.time()
    deadline = time.perf_counter() + seconds
    while not (passes or raised) or time.perf_counter() < deadline:
        recorder = Recorder()
        try:
            with installed(probes, recorder):
                result = workload.run_pass(state, len(passes) + raised)
        except Exception:
            traceback.print_exc()
            raised += 1
            before = calibrator.time()
            continue
        after = calibrator.time()
        passes.append((result, recorder, (before + after) / 2))
        before = after
    return passes, raised


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    workloads = importlib.import_module("perfbench.workloads")
    from perfbench.layers import LAYERS, PER_LAYER, TRACE_PROBES, ingest_latency, layer_metrics
    from perfbench.measure import Calibrator, check_metric_name, median, percentile
    from perfbench.probes import Probe

    import_s = time.perf_counter() - STARTED
    calibrator = Calibrator()
    workload = workloads.WORKLOADS[name]()
    setups, kernels = [], [calibrator.time()]
    for attempt in range(SETUPS):
        target = workdir / f"setup-{attempt}"
        target.mkdir(parents=True)
        started = time.perf_counter()
        state = workload.setup(seed, target)
        setups.append(time.perf_counter() - started)
        kernels.append(calibrator.time())
    n_events, n_matchers = workload.size(state)

    sample_probes = [Probe(workload.report_target, "report", kind="sample")]
    if workload.ingest_target:
        sample_probes.append(Probe(workload.ingest_target, "ingest", kind="sample"))
    plain, raised = measure_passes(
        workload, state, seconds / 2 if trace else seconds, sample_probes, calibrator
    )
    traced, traced_raised = (
        measure_passes(workload, state, seconds / 2, TRACE_PROBES, calibrator) if trace else ([], 0)
    )
    raised += traced_raised
    if not plain or (trace and not traced):
        raise RuntimeError(f"every {name} pass raised; nothing to measure")

    # Output checks: after the timed phase, excluded from every timing.
    results = [result for result, _, _ in plain + traced]
    report = workload.check(state, results)
    failed = list(report.failed) + [report.per_pass] * raised
    notes = list(report.notes)
    if raised:
        notes.append(f"{raised} passes raised (tracebacks on stderr)")
    for position in range(len(plain), len(results)):
        if results[position].digest != results[0].digest:
            failed[position] = report.per_pass
            notes.append(f"traced pass {position - len(plain)} differs from the untraced output")
    attempted = report.per_pass * len(failed)

    # Gated times are medians in reference seconds (see Calibrator): the
    # host's own speed drifts by up to 1.8x between runs, far more than
    # the changes the benchmark must resolve.  Raw seconds are kept too.
    walls = [result.seconds for result, _, _ in plain]
    wall_s = median([calibrator.scale(result.seconds, k) for result, _, k in plain])
    setup_s = calibrator.scale(import_s, kernels[0]) + median(
        [calibrator.scale(spent, (kernels[i] + kernels[i + 1]) / 2) for i, spent in enumerate(setups)]
    )
    report_p50s = [
        (percentile(recorder.samples.get("report", []), 50), k) for _, recorder, k in plain
    ]
    ingests = [value for _, recorder, _ in plain for value in recorder.samples.get("ingest", [])]
    ingest = ingest_latency(ingests)
    pass_kernels = [k for _, _, k in plain + traced]
    # Printed and saved, but not gated: these move with the seed (input
    # sizes, which classifiers training selects), not only with the code.
    notes += [
        "raw seconds: passes median {:.4f} best {:.4f} (n={}); set-up median {:.4f} plus "
        "imports {:.4f}; calibration kernel median {:.1f} ms (nominal {:.1f} ms)".format(
            median(walls), min(walls), len(walls), median(setups), import_s,
            median(pass_kernels) * 1e3, Calibrator.NOMINAL_S * 1e3,
        ),
        f"events_per_s {n_events / wall_s:.1f} 1/s ({n_events} distinct input events)",
        "report_ms_p50 {:.3f} ms (median over passes; n={} calls in {} passes)".format(
            median([calibrator.scale(p50.value, k) for p50, k in report_p50s]) * 1e3,
            sum(p50.count for p50, _ in report_p50s),
            len(report_p50s),
        ),
    ]
    if ingests:
        notes.append(
            "ingest_us_p50 {:.1f} us, ingest_us_p90 {:.1f} us (raw, n={})".format(
                ingest["stream.ingest_us_p50"], ingest["stream.ingest_us_p90"], len(ingests)
            )
        )
    samples = {"wall_s": len(walls), "setup_s": len(setups)}
    if trace:
        per_pass = [
            layer_metrics(recorder, result.start, result.end, result.info, n_events)
            for result, recorder, _ in traced
        ]
        metrics = {key: median([values[key] for values in per_pass]) for key in per_pass[0]}
        metrics.update(ingest)
        traced_wall = median([calibrator.scale(result.seconds, k) for result, _, k in traced])
        metrics["trace.overhead"] = traced_wall / wall_s - 1.0
        units = {metric: unit for metric, unit, _ in PER_LAYER}
        samples["stream.ingest_us_p50"] = samples["stream.ingest_us_p90"] = len(ingests)
        samples["trace.wall_s"] = len(traced)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "matchers_per_s": n_matchers / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    output = {
        "workload": name,
        "why": workload.why,
        "trace": int(trace),
        "provenance": provenance(seed),
        "import_s": import_s,
        "setups_s": setups,
        "untraced_walls_s": walls,
        "traced_walls_s": [result.seconds for result, _, _ in traced],
        "kernels_s": {"setup": kernels, "passes": pass_kernels},
        "size": {"events": n_events, "matchers": n_matchers},
        "attempted": attempted,
        "failed": sum(failed),
        "error_rate": sum(failed) / attempted if attempted else 0.0,
        "notes": notes,
        "samples": samples,
        "metrics": {
            check_metric_name(key): {"value": float(value), "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    if trace:
        output["layers"] = list(LAYERS)
        output["spans"] = [
            {
                "workload": name,
                "pass": index,
                "name": span.name,
                "start": span.start - result.start,
                "end": span.end - result.start,
                "parent": span.parent,
            }
            for index, (result, recorder, _) in enumerate(traced)
            for span in recorder.spans()
        ]
    return output


def print_report(output: dict) -> None:
    print(f"workload {output['workload']} (trace {output['trace']}): {output['why']}")
    print("provenance " + json.dumps(output["provenance"], sort_keys=True))
    print(
        f"attempted {output['attempted']} failed {output['failed']} "
        f"error_rate {output['error_rate']:.6f}"
    )
    for note in output["notes"]:
        print(f"note: {note}")
    for key, metric in output["metrics"].items():
        count = output["samples"].get(key)
        suffix = f" (n={count})" if count is not None else ""
        print(f"  {key:<28} {metric['value']:>16.6f} {metric['unit']}{suffix}")


def save(output: dict) -> None:
    """Write the result (and traced spans) under ``.bench_out/``; never tracked files."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{output['workload']}-seed{output['provenance']['seed']}-trace{output['trace']}"
    spans = output.pop("spans", None)
    if spans is not None:
        with gzip.open(out_dir / f"{stem}.spans.jsonl.gz", "wt") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    (out_dir / f"{stem}.json").write_text(json.dumps(output, indent=2, sort_keys=True) + "\n")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited with code {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for shared memory.

    The fleet exports its model into shared memory, which makes the
    standard library start a resource-tracker process; the benchmark
    waits for every process it caused to start before it exits.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    reason = refusal()
    if reason is not None:
        print(reason, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Keep the program's scratch files (shared-memory file fallback) in
    # the checkout.
    tempfile.tempdir = str(workdir)
    try:
        output = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
    print_report(output)
    save(output)
    print(
        json.dumps(
            {
                "correct": output["failed"] == 0,
                "attempted": output["attempted"],
                "failed": output["failed"],
                "metrics": output["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

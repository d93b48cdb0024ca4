"""Run one workload on several seeds and report each metric's spread.

::

    python3 perfbench/spread.py --workload fleet-ingest --seeds 1-10

Each run is a fresh ``perfbench/run.py`` process with BENCHMARK.json's
``run_seconds``.  For every metric the report gives the median and the
distance between the first and third quartile as a share of the median
— the figure the acceptance check compares with the metric's bound.  A
spread above a third of its bound is flagged: the benchmark is not
steady enough for that metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.measure import median, quartile_spread  # noqa: E402


def seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/spread.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric.get("bound") for metric in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failures = 0
    for seed in seeds(args.seeds):
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        failures += result["failed"] + (not result["correct"])
        summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {summary}", flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
    print(f"{'metric':<28} {'median':>14} {'spread':>8} {'bound':>6}  unit")
    for key, series in values.items():
        spread = quartile_spread(series)
        bound = bounds.get(key)
        flag = ""
        if bound is not None and key != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of its bound"
        bound_text = f"{bound:>6}" if bound is not None else f"{'-':>6}"
        print(f"{key:<28} {median(series):>14.6g} {spread:>8.4f} {bound_text}  {units[key]}{flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

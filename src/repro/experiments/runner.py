"""Command-line experiment runner.

Regenerates any of the paper's tables and figures from the command line:

    python -m repro.experiments fig8 table2a --scale reduced
    python -m repro.experiments all --scale tiny
    python -m repro.experiments table2a --scale paper     # full cohort sizes (slow)

Each experiment prints the same rows the paper reports (see EXPERIMENTS.md
for the paper-vs-measured record).
"""

from __future__ import annotations

import argparse
from typing import Callable, Sequence

from repro.core.features.cache import FeatureBlockCache
from repro.experiments.ablation_study import run_ablation_study
from repro.experiments.archetype_curves import run_archetype_curves
from repro.experiments.config import SCALE_NAMES, ExperimentConfig
from repro.experiments.feature_importance import run_feature_importance
from repro.experiments.generalization import run_generalization_experiment
from repro.experiments.identification import run_identification_experiment
from repro.experiments.outcome import run_outcome_experiment
from repro.experiments.population_analysis import run_population_analysis
from repro.experiments.reporting import format_table
from repro.runtime import runtime_argument


def _run_archetypes(config: ExperimentConfig, cache: FeatureBlockCache) -> str:
    result = run_archetype_curves(config)
    table = format_table(
        result.summary_rows(),
        columns=("archetype", "decisions", "P", "R", "Res", "Cal"),
        title="Figures 1/4/5/6: matcher archetypes",
    )
    heatmaps = "\n\n".join(curve.heatmap_ascii() for curve in result.curves.values())
    return f"{table}\n\n{heatmaps}"


def _run_population(config: ExperimentConfig, cache: FeatureBlockCache) -> str:
    result = run_population_analysis(config)
    return "\n\n".join([result.format_figure8(), result.format_figure9()])


def _run_outcome(config: ExperimentConfig, cache: FeatureBlockCache, early: bool) -> str:
    return run_outcome_experiment(config, early=early, cache=cache).format_table()


#: Experiment id -> callable producing the printable report.  Every callable
#: receives the per-run FeatureBlockCache so feature blocks extracted for one
#: table are reused by every other artifact over the same cohorts.
EXPERIMENTS: dict[str, Callable[[ExperimentConfig, FeatureBlockCache], str]] = {
    "fig1": _run_archetypes,
    "fig8": _run_population,
    "fig9": _run_population,
    "table2a": lambda config, cache: run_identification_experiment(config, cache=cache).format_table(),
    "table2b": lambda config, cache: run_generalization_experiment(config, cache=cache).format_table(),
    "table3": lambda config, cache: run_ablation_study(config, cache=cache).format_table(),
    "table4": lambda config, cache: run_feature_importance(config, cache=cache).format_table(),
    "fig10": lambda config, cache: _run_outcome(config, cache, early=False),
    "fig11": lambda config, cache: _run_outcome(config, cache, early=True),
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables and figures of 'Learning to Characterize Matching Experts'.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artifacts to regenerate ('all' runs every one)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALE_NAMES),
        default="reduced",
        help="cohort / model scale (default: reduced; 'paper' uses 106+34 matchers)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master random seed")
    parser.add_argument(
        "--runtime",
        type=runtime_argument,
        default=None,
        metavar="BACKEND[:N]",
        help=(
            "runtime backend for the parallelisable loops: serial or "
            "process[:N] (default: the REPRO_RUNTIME environment variable, "
            "else serial; results are bitwise identical on every backend)"
        ),
    )
    return parser


def run(
    experiment_ids: Sequence[str],
    scale: str = "reduced",
    seed: int = 42,
    runtime: str | None = None,
) -> dict[str, str]:
    """Run the requested experiments and return their printable reports.

    One :class:`FeatureBlockCache` is shared across the whole invocation:
    artifacts built over the same cohorts (e.g. ``table3`` and ``table4``)
    extract each feature block once.  ``runtime`` selects the backend for
    the parallelisable loops (see :mod:`repro.runtime`); every backend
    prints identical tables.
    """
    config = ExperimentConfig.from_scale(scale, random_state=seed)
    config.runtime = runtime
    cache = FeatureBlockCache()
    selected = sorted(EXPERIMENTS) if "all" in experiment_ids else list(dict.fromkeys(experiment_ids))
    reports: dict[str, str] = {}
    for experiment_id in selected:
        reports[experiment_id] = EXPERIMENTS[experiment_id](config, cache)
    return reports


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    reports = run(args.experiments, scale=args.scale, seed=args.seed, runtime=args.runtime)
    for experiment_id, report in reports.items():
        print(f"\n===== {experiment_id} =====")
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

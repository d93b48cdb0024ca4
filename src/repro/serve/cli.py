"""``python -m repro.serve`` — train-and-save, score, and inspect bundles.

Three sub-commands cover the artifact life-cycle end to end:

``fit``
    Simulate a cohort from an :class:`~repro.experiments.config.ExperimentConfig`
    scale, label it with the paper's expert model, train a
    :class:`~repro.core.characterizer.MExICharacterizer` and save it as a
    versioned bundle (optionally also saving a held-out scoring population).
``score``
    Load a bundle into a :class:`~repro.serve.service.CharacterizationService`
    and score a population — either re-simulated from a scale/seed/cohort or
    loaded from a population bundle — printing a table or JSON.  Scores are
    bitwise identical to in-memory prediction, on every runtime backend.
``inspect``
    Print a bundle's manifest metadata without loading its arrays.

Examples (run with ``PYTHONPATH=src``):

.. code-block:: bash

    python -m repro.serve fit --out /tmp/mexi-bundle --scale tiny
    python -m repro.serve score --bundle /tmp/mexi-bundle --scale tiny --cohort oaei
    python -m repro.serve inspect --bundle /tmp/mexi-bundle
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import EXPERT_CHARACTERISTICS, characterize_population, labels_matrix
from repro.core.features.cache import FeatureBlockCache
from repro.experiments.config import SCALE_NAMES, ExperimentConfig
from repro.runtime import runtime_argument
from repro.serve.artifacts import read_manifest, save_model
from repro.serve.population import load_population, save_population
from repro.serve.service import CharacterizationService
from repro.simulation.dataset import build_dataset

_VARIANTS: dict[str, MExIVariant] = {
    "empty": MExIVariant.EMPTY,
    "50": MExIVariant.SUB_50,
    "70": MExIVariant.SUB_70,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Persist, serve and inspect MExI characterizer artifacts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="train a characterizer and save a bundle")
    fit.add_argument("--out", required=True, metavar="DIR", help="bundle directory to create")
    fit.add_argument("--scale", choices=SCALE_NAMES, default="tiny", help="cohort/model scale")
    fit.add_argument("--seed", type=int, default=42, help="master random seed")
    fit.add_argument(
        "--variant", choices=sorted(_VARIANTS), default="50", help="MExI training variant"
    )
    feature_selection = fit.add_mutually_exclusive_group()
    feature_selection.add_argument(
        "--feature-sets",
        default=None,
        metavar="SET[,SET...]",
        help="comma-separated feature sets (default: all sets of the scale config)",
    )
    feature_selection.add_argument(
        "--no-neural",
        action="store_true",
        help="train on the offline sets only (lrsm, beh, mou)",
    )
    fit.add_argument(
        "--save-population",
        default=None,
        metavar="DIR",
        help="also save the held-out OAEI cohort as a scoring population bundle",
    )

    score = commands.add_parser("score", help="score a population against a saved bundle")
    score.add_argument("--bundle", required=True, metavar="DIR", help="bundle directory")
    score.add_argument(
        "--population",
        default=None,
        metavar="PATH",
        help="population bundle (or legacy .npz file) to score "
        "(default: simulate from --scale/--seed/--cohort)",
    )
    score.add_argument("--scale", choices=SCALE_NAMES, default="tiny", help="simulated scale")
    score.add_argument("--seed", type=int, default=42, help="simulation seed")
    score.add_argument(
        "--cohort",
        choices=("po", "oaei"),
        default="oaei",
        help="which simulated cohort to score (default: the held-out OAEI cohort)",
    )
    score.add_argument(
        "--runtime",
        type=runtime_argument,
        default=None,
        metavar="BACKEND[:N]",
        help="TaskRunner backend for chunk fan-out (serial or process[:N])",
    )
    score.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )

    inspect = commands.add_parser("inspect", help="print a bundle's metadata")
    inspect.add_argument("--bundle", required=True, metavar="DIR", help="bundle directory")
    return parser


def _simulated_cohort(scale: str, seed: int, cohort: str):
    config = ExperimentConfig.from_scale(scale, random_state=seed)
    dataset = build_dataset(
        n_po_matchers=config.n_po_matchers,
        n_oaei_matchers=config.n_oaei_matchers,
        random_state=config.random_state,
    )
    return config, (dataset.po_matchers if cohort == "po" else dataset.oaei_matchers)


def _fit(args: argparse.Namespace) -> int:
    config, matchers = _simulated_cohort(args.scale, args.seed, "po")
    profiles, _ = characterize_population(matchers, random_state=config.random_state)
    labels = labels_matrix(profiles)

    if args.feature_sets:
        feature_sets: Optional[tuple[str, ...]] = tuple(
            name.strip() for name in args.feature_sets.split(",") if name.strip()
        )
    elif args.no_neural:
        feature_sets = ("lrsm", "beh", "mou")
    else:
        feature_sets = config.feature_sets

    model = MExICharacterizer(
        variant=_VARIANTS[args.variant],
        feature_sets=feature_sets,
        neural_config=config.neural_config,
        random_state=config.random_state,
        cache=FeatureBlockCache(),
    )
    model.fit(matchers, labels)
    bundle = save_model(model, args.out)
    manifest = read_manifest(bundle)
    print(f"saved {manifest['model_type']} bundle to {bundle}")
    print(f"  format_version: {manifest['format_version']}")
    print(f"  fingerprint:    {manifest['fingerprint']}")
    print(f"  feature sets:   {', '.join(model.pipeline.include)}")
    print(f"  trained on:     {len(matchers)} matchers (scale={args.scale}, seed={args.seed})")
    for characteristic, name in model.selected_classifiers().items():
        print(f"  {characteristic:>11}: {name}")
    if args.save_population:
        _, held_out = _simulated_cohort(args.scale, args.seed, "oaei")
        population_path = save_population(held_out, args.save_population)
        print(f"saved {len(held_out)}-matcher scoring population to {population_path}")
    return 0


def _score(args: argparse.Namespace) -> int:
    service = CharacterizationService.from_bundle(args.bundle, runtime=args.runtime)
    if args.population:
        matchers = load_population(args.population)
        source = args.population
    else:
        _, matchers = _simulated_cohort(args.scale, args.seed, args.cohort)
        source = f"simulated {args.cohort} cohort (scale={args.scale}, seed={args.seed})"
    result = service.score_batch(matchers)

    if args.format == "json":
        payload = {
            "bundle": str(args.bundle),
            "population": source,
            "n_matchers": result.n_matchers,
            **result.to_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(f"scored {result.n_matchers} matchers from {source}")
    header = f"{'matcher':>16} | " + " | ".join(f"{name:>10}" for name in EXPERT_CHARACTERISTICS)
    print(header)
    print("-" * len(header))
    for row, matcher_id in enumerate(result.matcher_ids):
        cells = " | ".join(
            f"{int(result.labels[row, column])} ({result.probabilities[row, column]:.3f})"
            for column in range(len(EXPERT_CHARACTERISTICS))
        )
        print(f"{matcher_id:>16} | {cells}")
    return 0


def _inspect(args: argparse.Namespace) -> int:
    manifest = read_manifest(args.bundle)
    print(f"bundle:         {args.bundle}")
    print(f"format:         {manifest['format']} v{manifest['format_version']}")
    print(f"repro version:  {manifest.get('repro_version')}")
    print(f"model type:     {manifest.get('model_type')}")
    print(f"fingerprint:    {manifest.get('fingerprint')}")
    arrays = manifest.get("arrays", {})
    print(f"arrays:         {arrays.get('count')} ({arrays.get('bytes')} bytes raw)")
    spec = manifest.get("spec", {})
    if spec.get("__type__") == "core.mexi_characterizer":
        pipeline = spec.get("pipeline", {})
        print(f"variant:        {spec.get('variant')}")
        print(f"feature sets:   {', '.join(pipeline.get('include', []))}")
        print(f"n features:     {len(pipeline.get('feature_names', []))}")
        for characteristic, entry in zip(EXPERT_CHARACTERISTICS, spec.get("label_models", [])):
            print(
                f"  {characteristic:>11}: {entry.get('classifier_name')} "
                f"(cv={entry.get('cv_score'):.3f})"
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "fit":
        return _fit(args)
    if args.command == "score":
        return _score(args)
    return _inspect(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro.serve`` CLI: fit -> score reproduces in-memory predictions bitwise."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import EXPERT_CHARACTERISTICS, characterize_population, labels_matrix
from repro.core.features.cache import FeatureBlockCache
from repro.experiments.config import ExperimentConfig
from repro.serve.cli import main
from repro.simulation.dataset import build_dataset

SEED = 42


@pytest.fixture(scope="module")
def cli_bundle(tmp_path_factory):
    """One CLI ``fit`` shared by the whole module (tiny scale, offline sets)."""
    root = tmp_path_factory.mktemp("cli")
    bundle = root / "bundle"
    population = root / "population"
    exit_code = main(
        [
            "fit",
            "--out",
            str(bundle),
            "--scale",
            "tiny",
            "--seed",
            str(SEED),
            "--no-neural",
            "--save-population",
            str(population),
        ]
    )
    assert exit_code == 0
    return bundle, population


@pytest.fixture(scope="module")
def in_memory_reference():
    """The exact in-memory training run the CLI ``fit`` performs."""
    config = ExperimentConfig.from_scale("tiny", random_state=SEED)
    dataset = build_dataset(
        n_po_matchers=config.n_po_matchers,
        n_oaei_matchers=config.n_oaei_matchers,
        random_state=config.random_state,
    )
    profiles, _ = characterize_population(dataset.po_matchers, random_state=config.random_state)
    model = MExICharacterizer(
        variant=MExIVariant.SUB_50,
        feature_sets=("lrsm", "beh", "mou"),
        neural_config=config.neural_config,
        random_state=config.random_state,
        cache=FeatureBlockCache(),
    )
    model.fit(dataset.po_matchers, labels_matrix(profiles))
    return model, dataset


def _scored_json(capsys, arguments) -> dict:
    assert main(arguments) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_fit_then_score_reproduces_in_memory_bitwise(
    cli_bundle, in_memory_reference, capsys
):
    """The acceptance gate: CLI fit -> score == MExICharacterizer.predict, bitwise.

    JSON floats round-trip exactly (repr-based), so string equality of the
    parsed payload against the in-memory float values is a bitwise check.
    """
    bundle, _ = cli_bundle
    model, dataset = in_memory_reference
    payload = _scored_json(
        capsys,
        [
            "score",
            "--bundle",
            str(bundle),
            "--scale",
            "tiny",
            "--seed",
            str(SEED),
            "--cohort",
            "oaei",
            "--format",
            "json",
        ],
    )
    cohort = dataset.oaei_matchers
    expected_labels = model.predict(cohort)
    expected_probabilities = model.predict_proba(cohort)
    assert payload["n_matchers"] == len(cohort)
    for row, entry in enumerate(payload["matchers"]):
        assert entry["id"] == cohort[row].matcher_id
        for column, characteristic in enumerate(EXPERT_CHARACTERISTICS):
            assert entry["labels"][characteristic] == int(expected_labels[row, column])
            assert entry["scores"][characteristic] == float(expected_probabilities[row, column])


def test_cli_score_population_file_matches_simulated(cli_bundle, capsys):
    """Scoring the saved population bundle == scoring the re-simulated cohort."""
    bundle, population = cli_bundle
    from_file = _scored_json(
        capsys,
        ["score", "--bundle", str(bundle), "--population", str(population), "--format", "json"],
    )
    simulated = _scored_json(
        capsys,
        [
            "score",
            "--bundle",
            str(bundle),
            "--scale",
            "tiny",
            "--seed",
            str(SEED),
            "--cohort",
            "oaei",
            "--format",
            "json",
        ],
    )
    assert from_file["matchers"] == simulated["matchers"]


def test_cli_score_runtime_backends_identical(cli_bundle, capsys):
    bundle, population = cli_bundle
    results = [
        _scored_json(
            capsys,
            [
                "score",
                "--bundle",
                str(bundle),
                "--population",
                str(population),
                "--runtime",
                backend,
                "--format",
                "json",
            ],
        )["matchers"]
        for backend in ("serial", "process:2")
    ]
    assert results[0] == results[1]


def test_cli_score_table_output(cli_bundle, capsys):
    bundle, population = cli_bundle
    assert main(["score", "--bundle", str(bundle), "--population", str(population)]) == 0
    output = capsys.readouterr().out
    assert "scored" in output
    for characteristic in EXPERT_CHARACTERISTICS:
        assert characteristic in output


def test_cli_fit_rejects_conflicting_feature_flags(tmp_path, capsys):
    """--feature-sets and --no-neural contradict each other and are rejected."""
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "fit",
                "--out",
                str(tmp_path / "x"),
                "--feature-sets",
                "lrsm,seq",
                "--no-neural",
            ]
        )
    assert excinfo.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_cli_inspect(cli_bundle, capsys):
    bundle, _ = cli_bundle
    assert main(["inspect", "--bundle", str(bundle)]) == 0
    output = capsys.readouterr().out
    assert "repro-model-bundle v2" in output
    assert "MExICharacterizer" in output
    assert "fingerprint" in output

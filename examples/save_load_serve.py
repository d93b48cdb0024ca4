"""Fit -> save -> load in a FRESH PROCESS -> serve a scoring batch.

Demonstrates the artifact + serving life-cycle end to end:

1. train a MExI characterizer on a simulated cohort and save it as a
   versioned bundle (``manifest.json`` + ``arrays/*.npy``, no pickle);
2. save the held-out cohort as a scoring population bundle;
3. re-execute this script in a **fresh Python process** (so no in-memory
   state can leak) that loads the bundle into a
   ``CharacterizationService`` and scores the population;
4. verify in the parent that the fresh-process scores are bitwise
   identical to the in-memory predictions.

Run with:  PYTHONPATH=src python examples/save_load_serve.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core import MExICharacterizer, MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.serve import CharacterizationService, load_population, save_population
from repro.simulation import build_dataset


def serve_in_this_process(bundle_dir: str, population_dir: str, scores_file: str) -> None:
    """The 'fresh process' half: load the bundle, score, write the scores."""
    service = CharacterizationService.from_bundle(bundle_dir)
    matchers = load_population(population_dir)
    result = service.score_batch(matchers)
    np.savez(scores_file, labels=result.labels, probabilities=result.probabilities)
    print(f"  [fresh process] scored {result.n_matchers} matchers from {population_dir}")
    print(f"  [fresh process] model: {service.info()['model']['selected_classifiers']}")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    bundle_dir = workdir / "bundle"
    population_dir = workdir / "population"
    scores_file = workdir / "scores.npz"

    # 1. Fit on the PO cohort (offline feature sets keep the demo fast).
    dataset = build_dataset(n_po_matchers=16, n_oaei_matchers=6, random_state=3)
    profiles, _ = characterize_population(dataset.po_matchers, random_state=3)
    model = MExICharacterizer(
        variant=MExIVariant.SUB_50, feature_sets=("lrsm", "beh", "mou"), random_state=3
    )
    model.fit(dataset.po_matchers, labels_matrix(profiles))
    model.save(bundle_dir)
    print(f"saved bundle to {bundle_dir}")

    # 2. Ship the held-out OAEI cohort as a scoring population bundle.
    save_population(dataset.oaei_matchers, population_dir)
    expected_labels = model.predict(dataset.oaei_matchers)
    expected_probabilities = model.predict_proba(dataset.oaei_matchers)

    # 3. Load + serve in a genuinely fresh Python process.
    subprocess.run(
        [
            sys.executable,
            __file__,
            "--serve",
            str(bundle_dir),
            str(population_dir),
            str(scores_file),
        ],
        check=True,
        env=os.environ.copy(),
    )

    # 4. The fresh process reproduced the in-memory predictions bitwise.
    with np.load(scores_file) as scores:
        assert np.array_equal(scores["labels"], expected_labels)
        assert np.array_equal(scores["probabilities"], expected_probabilities)
    print("fresh-process scores are bitwise identical to the in-memory predictions ✓")


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--serve":
        serve_in_this_process(sys.argv[2], sys.argv[3], sys.argv[4])
    else:
        main()

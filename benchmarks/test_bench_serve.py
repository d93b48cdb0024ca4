"""Artifact + serving benchmark: bundle save/load cost and scoring throughput.

Times the serving life-cycle at the reduced benchmark scale:

* ``save_model`` / ``load_model`` wall-clock and bundle size for a fitted
  characterizer over the offline feature sets,
* ``CharacterizationService.score_batch`` throughput (matchers/second)
  on the ``serial`` and ``process:2`` backends with the derived chunk
  plan, for a first (cold) and a repeated (warm) call.

Determinism is asserted alongside the timings: the loaded model and the
service must reproduce the in-memory predictions bitwise.  All numbers
are recorded into ``.bench_out/pytest/BENCH_serve.json`` via the session hook
in ``conftest.py``.
"""

import time

import numpy as np

from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.serve import CharacterizationService, load_model, save_model
from repro.simulation.dataset import build_dataset

def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def test_bench_serve_lifecycle(bench_config, serve_timings, tmp_path):
    """Save/load cost, bundle size, and per-backend scoring throughput."""
    dataset = build_dataset(
        n_po_matchers=bench_config.n_po_matchers,
        n_oaei_matchers=bench_config.n_oaei_matchers,
        random_state=bench_config.random_state,
    )
    profiles, _ = characterize_population(
        dataset.po_matchers, random_state=bench_config.random_state
    )
    model = MExICharacterizer(
        variant=MExIVariant.SUB_50,
        feature_sets=("lrsm", "beh", "mou"),
        random_state=bench_config.random_state,
    )
    _, fit_seconds = _timed(lambda: model.fit(dataset.po_matchers, labels_matrix(profiles)))
    serve_timings["fit_seconds"] = fit_seconds

    bundle, save_seconds = _timed(lambda: save_model(model, tmp_path / "bundle"))
    serve_timings["save_seconds"] = save_seconds
    serve_timings["bundle_bytes"] = float(
        sum(path.stat().st_size for path in bundle.iterdir())
    )

    loaded, load_seconds = _timed(lambda: load_model(bundle))
    serve_timings["load_seconds"] = load_seconds

    population = dataset.po_matchers
    expected = model.predict(population)
    expected_probabilities = model.predict_proba(population)
    assert np.array_equal(loaded.predict(population), expected)

    for spec in ("serial", "process:2"):
        backend = spec.partition(":")[0]
        service = CharacterizationService.from_bundle(bundle, runtime=spec)
        result, cold_seconds = _timed(lambda: service.score_batch(population))
        assert np.array_equal(result.labels, expected), backend
        assert np.array_equal(result.probabilities, expected_probabilities), backend
        _, warm_seconds = _timed(lambda: service.score_batch(population))
        serve_timings[f"score_cold_{backend}"] = cold_seconds
        serve_timings[f"score_warm_{backend}"] = warm_seconds
        serve_timings[f"throughput_cold_{backend}_matchers_per_s"] = (
            len(population) / cold_seconds
        )
        print(
            f"score [{backend}]: cold {cold_seconds:.3f}s "
            f"({len(population) / cold_seconds:.1f} matchers/s), warm {warm_seconds:.3f}s"
        )

"""Persistent model artifacts and the batch characterization service.

The serving layer makes trained models durable and servable:

* :mod:`repro.serve.artifacts` — versioned ``manifest.json`` + array
  bundles (:func:`save_model` / :func:`load_model`) for every fitted
  estimator, round-tripping to bitwise-identical predictions, with
  format-version and content-fingerprint checks.  Bundles follow the
  shared :mod:`repro.io.bundle` contract: one ``.npy`` per array, loaded
  with ``np.load(mmap_mode="r")`` so model loads are O(pages-touched)
  and concurrent processes share pages.
* :mod:`repro.serve.service` — :class:`CharacterizationService`: load a
  bundle once and score matcher populations in deterministic parallel
  chunks over the :class:`~repro.runtime.TaskRunner` (process workers
  receive the model once each, pickled through the pool initializer).
* :mod:`repro.serve.population` — scoring populations
  (:func:`save_population` / :func:`load_population`): memory-mappable
  bundle directories (legacy single ``.npz`` files still load).
* :mod:`repro.serve.cli` — the ``python -m repro.serve fit|score|inspect``
  command line.

See ``docs/api.md`` for worked examples.
"""

from repro.serve.artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_FORMAT_VERSION,
    SUPPORTED_ARTIFACT_VERSIONS,
    ArtifactError,
    load_model,
    read_manifest,
    save_model,
)
from repro.serve.population import (
    POPULATION_FORMAT,
    POPULATION_FORMAT_VERSION,
    load_population,
    save_population,
)
from repro.serve.service import (
    MAX_CHUNK_MATCHERS,
    BatchScores,
    CharacterizationService,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_FORMAT_VERSION",
    "SUPPORTED_ARTIFACT_VERSIONS",
    "ArtifactError",
    "save_model",
    "load_model",
    "read_manifest",
    "POPULATION_FORMAT",
    "POPULATION_FORMAT_VERSION",
    "save_population",
    "load_population",
    "MAX_CHUNK_MATCHERS",
    "BatchScores",
    "CharacterizationService",
]

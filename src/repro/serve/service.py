"""Batch characterization service over a saved (or in-memory) MExI model.

:class:`CharacterizationService` is the serving-side counterpart of the
training pipeline: it loads an artifact bundle **once** and scores
incoming matcher populations in extraction chunks fanned out over the
deterministic :class:`~repro.runtime.TaskRunner` (``serial`` or
``process``).

No feature cache
----------------
Every batch is extracted afresh; scoring looks nothing up.  A cache
keyed by population content has to digest each batch's events and
decisions first, and on live re-scoring that digest cost more than the
cache saved: a changed session changes the population, so few batches
ever repeat.  A memo of each live session's rows keyed by a revision
token instead avoided the digest, but it measured no faster end to end
on the streaming or fleet benchmarks than extracting every batch, so it
is not kept either.

Chunk plan
----------
Chunks exist only to fan extraction out to workers, and each one pays
fixed costs again (the population kernels' equal-length groups, the
LRSM stacks).  So the plan follows the runner ``score_batch`` resolves:
a runner with ``W`` workers gets ``max(W, ceil(n / MAX_CHUNK_MATCHERS))``
balanced chunks, where ``W`` is 1 on ``serial`` (and for any call already
inside a worker, which resolves to ``serial``).  A serial batch of up to
``MAX_CHUNK_MATCHERS`` matchers is therefore one chunk.

Determinism contract
--------------------
``score_batch`` is **bitwise identical** to an in-memory
``MExICharacterizer.predict`` / ``predict_proba`` on the whole population,
on every backend and for every chunk plan (enforced by
``tests/serve/test_service.py``).  Two design rules make this hold:

* **Chunks parallelise feature extraction only.**  Classification always
  runs once, in the parent, on the fused full feature matrix — the exact
  arrays the in-memory path sees — so shape-dependent BLAS kernels (a
  ``(m, k) @ (k,)`` GEMV rounds differently for different ``m``) never
  see different shapes between the served and in-memory paths.
* **Chunks are never singletons** (unless the population itself has one
  matcher): batch-1 matrix products dispatch to different BLAS kernels
  than batch-n products, so the plan never holds more chunks than
  ``n // 2``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.core.characterizer import MExICharacterizer
from repro.core.expert_model import EXPERT_CHARACTERISTICS
from repro.core.features.base import FeatureBlock
from repro.core.features.cache import FeatureBlockCache
from repro.core.features.pipeline import FeaturePipeline
from repro.matching.matcher import HumanMatcher
from repro.runtime import RuntimeSpec, TaskRunner, resolve_runner
from repro.serve.artifacts import ArtifactError, load_model, read_manifest

#: Most matchers one derived extraction chunk holds.  It changes no
#: result, only how many chunks a batch takes: it keeps the extractors'
#: working set (and neural forward passes) memory-bounded on very large
#: batches.  Every batch up to this size is one chunk on ``serial``.
MAX_CHUNK_MATCHERS = 1024


@dataclass(frozen=True)
class BatchScores:
    """FeatureBlock-style result of one :meth:`CharacterizationService.score_batch`.

    Attributes
    ----------
    matcher_ids:
        Identifier of each scored matcher, in input order.
    labels:
        ``(n_matchers, 4)`` 0/1 expert-label matrix (columns in
        :data:`~repro.core.expert_model.EXPERT_CHARACTERISTICS` order).
    probabilities:
        ``(n_matchers, 4)`` per-characteristic positive-class scores.
    """

    matcher_ids: tuple[str, ...]
    labels: np.ndarray
    probabilities: np.ndarray

    @property
    def n_matchers(self) -> int:
        return self.labels.shape[0]

    def label_block(self) -> FeatureBlock:
        """The 0/1 labels as a named :class:`FeatureBlock`."""
        names = [f"label_{name}" for name in EXPERT_CHARACTERISTICS]
        return FeatureBlock(names, self.labels.astype(float))

    def probability_block(self) -> FeatureBlock:
        """The expertise scores as a named :class:`FeatureBlock`."""
        names = [f"proba_{name}" for name in EXPERT_CHARACTERISTICS]
        return FeatureBlock(names, self.probabilities)

    def block(self) -> FeatureBlock:
        """Labels and scores fused into one eight-column block."""
        return FeatureBlock.hstack([self.label_block(), self.probability_block()])

    def to_dict(self) -> dict:
        """A JSON-ready representation (used by ``python -m repro.serve score``)."""
        return {
            "characteristics": list(EXPERT_CHARACTERISTICS),
            "matchers": [
                {
                    "id": matcher_id,
                    "labels": {
                        name: int(self.labels[row, column])
                        for column, name in enumerate(EXPERT_CHARACTERISTICS)
                    },
                    "scores": {
                        name: float(self.probabilities[row, column])
                        for column, name in enumerate(EXPERT_CHARACTERISTICS)
                    },
                }
                for row, matcher_id in enumerate(self.matcher_ids)
            ],
        }


def _extract_chunk(
    matchers: list[HumanMatcher], pipeline: FeaturePipeline
) -> dict[str, FeatureBlock]:
    """One chunk's feature blocks (module-level for pickling).

    ``pipeline`` carries no cache, so nothing is digested or looked up.
    """
    return pipeline.transform_blocks(matchers)


def _balanced(matchers: list[HumanMatcher], n_chunks: int) -> list[list[HumanMatcher]]:
    """Split a population into ``n_chunks`` contiguous chunks of near-equal size.

    The count is capped at ``len(matchers) // 2`` so no chunk is a
    singleton (see the module docstring).
    """
    n_chunks = max(1, min(n_chunks, len(matchers) // 2))
    size, extra = divmod(len(matchers), n_chunks)
    chunks, start = [], 0
    for index in range(n_chunks):
        stop = start + size + (index < extra)
        chunks.append(matchers[start:stop])
        start = stop
    return chunks


def _chunk_plan(matchers: list[HumanMatcher], runner: TaskRunner) -> list[list[HumanMatcher]]:
    """The extraction chunks of one batch (see the module docstring's plan)."""
    workers = 1 if runner.backend == "serial" else runner.max_workers
    return _balanced(matchers, max(workers, -(-len(matchers) // MAX_CHUNK_MATCHERS)))


class CharacterizationService:
    """Long-lived scoring service around one fitted MExI characterizer.

    Parameters
    ----------
    model:
        A fitted :class:`MExICharacterizer` (load one with
        :meth:`from_bundle`, or pass an in-memory model).
    runtime:
        Default :class:`~repro.runtime.TaskRunner` spec for chunk fan-out
        (``None`` defers to ``REPRO_RUNTIME``, then ``serial``).  Results
        are bitwise identical on every backend.  The extraction chunks
        follow the resolved runner (see the module docstring's chunk
        plan); the ``process`` backend delivers the feature pipeline once
        per worker through the pool initializer (see
        :meth:`repro.runtime.TaskRunner.map`).
    cache:
        Accepted so existing callers keep working, and ignored: the
        service keeps no feature cache (see the module docstring).  The
        model's own pipeline cache, if any, is left as it is and not used
        for scoring.

    Raises
    ------
    ValueError
        If the model is not fitted.
    """

    def __init__(
        self,
        model: MExICharacterizer,
        *,
        runtime: RuntimeSpec = None,
        cache: Optional[FeatureBlockCache] = None,
        bundle_info: Optional[dict] = None,
    ) -> None:
        if not model.is_fitted:
            raise ValueError("CharacterizationService requires a fitted MExICharacterizer")
        self.model = model
        self.runtime = runtime
        self._bundle_info = dict(bundle_info) if bundle_info else None

    @classmethod
    def from_bundle(
        cls,
        path,
        *,
        runtime: RuntimeSpec = None,
    ) -> "CharacterizationService":
        """Load an artifact bundle once and wrap it in a service.

        Raises
        ------
        ArtifactError
            If the bundle is missing, corrupt, of an unsupported format
            version, or does not contain a ``MExICharacterizer``.
        """
        manifest = read_manifest(path)
        if manifest.get("model_type") != MExICharacterizer.__name__:
            raise ArtifactError(
                f"bundle at {path} contains a {manifest.get('model_type')!r}, "
                "but CharacterizationService serves MExICharacterizer bundles"
            )
        model = load_model(path, manifest=manifest)
        info = {
            "path": str(path),
            "format_version": manifest["format_version"],
            "repro_version": manifest.get("repro_version"),
            "fingerprint": manifest.get("fingerprint"),
            "model_type": manifest.get("model_type"),
        }
        return cls(model, runtime=runtime, bundle_info=info)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def score_batch(
        self,
        matchers: Sequence[HumanMatcher],
        *,
        runtime: RuntimeSpec = None,
    ) -> BatchScores:
        """Characterize a matcher population, extracting in deterministic chunks.

        Args
        ----
        matchers:
            The population to score (any length, including empty).
        runtime:
            Per-call backend override (defaults to the service's runtime);
            the extraction chunks follow the resolved runner.

        Returns
        -------
        BatchScores
            Labels and expertise scores in input order — bitwise identical
            to ``model.predict`` / ``model.predict_proba`` on the whole
            population, on every backend (see the module docstring's
            determinism contract).
        """
        matchers = list(matchers)
        ids = tuple(matcher.matcher_id for matcher in matchers)
        n_labels = len(EXPERT_CHARACTERISTICS)
        if not matchers:
            return BatchScores(ids, np.zeros((0, n_labels), dtype=int), np.zeros((0, n_labels)))
        runner = resolve_runner(runtime if runtime is not None else self.runtime)
        chunks = _chunk_plan(matchers, runner)
        pipeline = self.model.pipeline.with_cache(None)
        telemetry = obs.obs_enabled()
        with obs.trace_span("serve.score_batch", matchers=len(matchers), chunks=len(chunks)):
            extract_started = time.perf_counter()
            with obs.trace_span("serve.extract", chunks=len(chunks)):
                chunk_blocks = runner.map(_extract_chunk, chunks, context=pipeline)
            extract_seconds = time.perf_counter() - extract_started
            # Fuse the per-chunk blocks into full-population blocks, then
            # classify once in the parent: classification sees the exact
            # arrays the in-memory path sees (see the determinism contract).
            blocks = {
                name: FeatureBlock(
                    chunk_blocks[0][name].names,
                    np.vstack([chunk[name].matrix for chunk in chunk_blocks]),
                )
                for name in self.model.pipeline.include
            }
            classify_started = time.perf_counter()
            with obs.trace_span("serve.classify", matchers=len(matchers)):
                labels, probabilities = self.model.characterize(matchers, precomputed=blocks)
            classify_seconds = time.perf_counter() - classify_started
        if telemetry:
            self._record_scoring_metrics(
                matchers, probabilities, extract_seconds, classify_seconds
            )
        return BatchScores(ids, labels, probabilities)

    def _record_scoring_metrics(
        self,
        matchers: Sequence[HumanMatcher],
        probabilities: np.ndarray,
        extract_seconds: float,
        classify_seconds: float,
    ) -> None:
        """Account one scored batch into the process metrics registry."""
        obs.counter("repro_score_batches_total", "Characterization batches scored.").inc()
        obs.counter("repro_score_matchers_total", "Matchers scored across batches.").inc(
            len(matchers)
        )
        obs.histogram(
            "repro_score_extract_seconds", "Feature-extraction wall-clock per batch."
        ).observe(extract_seconds)
        obs.histogram(
            "repro_score_classify_seconds", "Classification wall-clock per batch."
        ).observe(classify_seconds)
        # Per-characteristic probability moments: the mergeable summary a
        # drift monitor (ROADMAP item 4) compares across time windows.
        score_moments = obs.distribution(
            "repro_score_probability",
            "Served probability per expert characteristic.",
            labelnames=("characteristic",),
        )
        for column, characteristic in enumerate(EXPERT_CHARACTERISTICS):
            score_moments.observe_many(probabilities[:, column], characteristic=characteristic)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def info(self) -> dict:
        """Service metadata: bundle provenance and model summary."""
        pipeline = self.model.pipeline
        return {
            "bundle": self._bundle_info,
            "model": {
                "type": type(self.model).__name__,
                "variant": self.model.variant.value,
                "feature_sets": list(pipeline.include),
                "n_features": len(pipeline.feature_names_),
                "selected_classifiers": self.model.selected_classifiers(),
            },
            "runtime": self.runtime if isinstance(self.runtime, (str, type(None))) else repr(self.runtime),
        }

    def __repr__(self) -> str:
        return (
            f"CharacterizationService(model={self.model!r}, runtime={self.runtime!r})"
        )


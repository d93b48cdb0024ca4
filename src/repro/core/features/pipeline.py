"""The full feature encoding Phi(D) with the paper's late-fusion strategy.

During training the pipeline first fits the offline feature sets (which only
need the training population for the consensuality model), then trains the
neural feature sets (Phi_Seq, Phi_Spa) on the training matchers and their
labels; their predicted label coefficients are appended as features.  During
testing the trained networks are applied to new matchers and the five sets
are concatenated into a single feature vector (Section III-B, Figure 7).

The pipeline is batch-first: each feature set produces one
:class:`~repro.core.features.base.FeatureBlock` for the whole population and
``transform`` ``hstack``s the per-set blocks.  When a
:class:`~repro.core.features.cache.FeatureBlockCache` is attached, blocks
are reused across configurations (the offline sets are pure functions of
the population, and the neural sets are keyed by their exact training
inputs), so studies that evaluate many feature-set subsets — the Table III
ablation, Table IV importance, Tables IIa/IIb — extract each block once.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

import numpy as np

from repro.core.features.base import FeatureBlock, FeatureExtractor, FeatureVector
from repro.core.features.behavioral import BehavioralFeatures
from repro.core.features.cache import FeatureBlockCache, population_fingerprint
from repro.core.features.consensus import ConsensusModel
from repro.core.features.mouse import MouseFeatures
from repro.core.features.predictors import LRSMFeatures
from repro.core.features.sequential import SequentialFeatures
from repro.core.features.spatial import SpatialFeatures
from repro.matching.matcher import HumanMatcher

#: The five feature-set names, in the paper's presentation order.
FEATURE_SET_NAMES: tuple[str, ...] = ("lrsm", "beh", "mou", "seq", "spa")

#: The sets that need no label supervision (pure functions of the population
#: plus, for ``beh``, the training consensus model).
OFFLINE_SET_NAMES: tuple[str, ...] = ("lrsm", "beh", "mou")

#: The supervised (neural) sets, refitted per training configuration.
NEURAL_SET_NAMES: tuple[str, ...] = ("seq", "spa")

#: Alias kept for readability of signatures.
FeatureSetName = str

#: Extractor class per supervised (neural) set name.
_NEURAL_CLASSES = {"seq": SequentialFeatures, "spa": SpatialFeatures}


class _NeuralFactory:
    """A picklable factory producing pristine neural extractors.

    Replaces the historical per-pipeline lambdas so that fitted pipelines
    (and the characterizers and services wrapping them) can travel to
    ``process``-backend :class:`repro.runtime.TaskRunner` workers and into
    :mod:`repro.serve` artifact bundles.
    """

    def __init__(self, set_name: str, random_state: Optional[int], kwargs: dict) -> None:
        self.set_name = set_name
        self.random_state = random_state
        self.kwargs = dict(kwargs)

    def __call__(self):
        return _NEURAL_CLASSES[self.set_name](random_state=self.random_state, **self.kwargs)


class FeaturePipeline:
    """Extracts and fuses the five MExI feature sets.

    Parameters
    ----------
    include:
        Feature sets to use (default: all five).  The ablation study of
        Table III passes singletons (include mode) or four-element subsets
        (exclude mode).
    neural_config:
        Optional keyword arguments for the neural extractors, keyed by set
        name (``"seq"`` / ``"spa"``).  Benchmarks use this to shrink the
        networks.
    random_state:
        Seed forwarded to the neural extractors.
    cache:
        Optional :class:`FeatureBlockCache` shared with other pipelines.
        Blocks (and deterministic neural fits) are reused whenever the
        population and extractor configuration match.
    """

    def __init__(
        self,
        include: Optional[Sequence[FeatureSetName]] = None,
        neural_config: Optional[dict[str, dict]] = None,
        random_state: Optional[int] = 0,
        cache: Optional[FeatureBlockCache] = None,
    ) -> None:
        selected = tuple(include) if include is not None else FEATURE_SET_NAMES
        unknown = set(selected) - set(FEATURE_SET_NAMES)
        if unknown:
            raise ValueError(f"unknown feature sets: {sorted(unknown)}")
        if not selected:
            raise ValueError("at least one feature set must be included")
        self.include = tuple(name for name in FEATURE_SET_NAMES if name in selected)
        self.random_state = random_state
        self.cache = cache
        #: Neural-extractor keyword arguments, kept for introspection and
        #: artifact serialization (:mod:`repro.serve.artifacts`).
        self.neural_config: dict[str, dict] = {
            name: dict(kwargs) for name, kwargs in (neural_config or {}).items()
        }

        self._extractors: dict[str, FeatureExtractor] = {}
        #: Factories for pristine neural extractors.  A cache miss always
        #: fits a *fresh* instance, so fitted extractors stored in a shared
        #: cache are never retrained in place by a later ``fit``.
        self._neural_factories: dict[str, _NeuralFactory] = {}
        if "lrsm" in self.include:
            self._extractors["lrsm"] = LRSMFeatures()
        if "beh" in self.include:
            self._extractors["beh"] = BehavioralFeatures()
        if "mou" in self.include:
            self._extractors["mou"] = MouseFeatures()
        for name in NEURAL_SET_NAMES:
            if name in self.include:
                self._neural_factories[name] = _NeuralFactory(
                    name, random_state, self.neural_config.get(name, {})
                )
                self._extractors[name] = self._neural_factories[name]()

        self.feature_names_: list[str] = []
        self._fitted = False

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _fit_consensus(self, matchers: Sequence[HumanMatcher]) -> ConsensusModel:
        """Fit (or fetch from the cache) the training consensuality model."""
        if self.cache is None:
            return ConsensusModel().fit(matchers)
        key = f"consensus:{population_fingerprint(matchers)}"
        model = self.cache.get_or_fit(key, lambda: ConsensusModel().fit(matchers))
        assert isinstance(model, ConsensusModel)
        return model

    def _fit_neural(
        self,
        name: str,
        matchers: Sequence[HumanMatcher],
        labels: Optional[np.ndarray],
        consensus: ConsensusModel,
    ) -> None:
        """Fit one neural extractor, memoising deterministic fits in the cache.

        Fitting always starts from a *fresh* factory instance: the
        pipeline's previous extractor may live in the shared cache (from an
        earlier hit), so neither retraining it nor re-wiring its consensus
        in place is safe — either would corrupt the cached state for every
        other pipeline sharing it.
        """
        candidate = self._neural_factories[name]()
        if isinstance(candidate, SequentialFeatures):
            candidate.consensus = consensus
        # Spatial fits share their pre-trained donor trunks through the cache.
        fit_args = {"cache": self.cache} if isinstance(candidate, SpatialFeatures) else {}
        fingerprint_method = getattr(candidate, "fit_fingerprint", None)
        if self.cache is None or fingerprint_method is None or labels is None:
            self._extractors[name] = candidate.fit(matchers, labels, **fit_args)
            return
        label_matrix = np.asarray(labels, dtype=float)
        fit_key = f"{name}:{fingerprint_method(matchers, label_matrix)}"
        fitted = self.cache.get_or_fit(
            fit_key, lambda: candidate.fit(matchers, labels, **fit_args)
        )
        assert isinstance(fitted, FeatureExtractor)
        self._extractors[name] = fitted

    def fit(
        self, matchers: Sequence[HumanMatcher], labels: Optional[np.ndarray] = None
    ) -> "FeaturePipeline":
        """Fit the pipeline on the training population (and its labels).

        ``labels`` is required whenever a neural feature set is included,
        because Phi_Seq / Phi_Spa are supervised feature extractors.
        """
        if not matchers:
            raise ValueError("cannot fit a feature pipeline on an empty population")
        needs_labels = any(name in self.include for name in NEURAL_SET_NAMES)
        if needs_labels and labels is None:
            raise ValueError("labels are required to fit the neural feature sets")

        consensus = self._fit_consensus(matchers)
        if "beh" in self._extractors:
            behavioral = self._extractors["beh"]
            assert isinstance(behavioral, BehavioralFeatures)
            behavioral.consensus = consensus

        for name in NEURAL_SET_NAMES:
            if name in self._extractors:
                self._fit_neural(name, matchers, labels, consensus)

        self.feature_names_ = []
        for name in self.include:
            self.feature_names_.extend(self._set_names(name, matchers))
        self._fitted = True
        return self

    def _set_names(self, name: str, matchers: Sequence[HumanMatcher]) -> list[str]:
        """The feature names of one set, without extracting the population."""
        extractor = self._extractors[name]
        names_method = getattr(extractor, "feature_names", None)
        if names_method is not None:
            return list(names_method())
        # Generic extractors: derive names from a single-matcher batch.
        return list(extractor.extract_batch(list(matchers)[:1]).names)

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #

    def with_cache(self, cache: Optional[FeatureBlockCache]) -> "FeaturePipeline":
        """A view of this pipeline that looks blocks up in ``cache``.

        The view shares the fitted extractors (and everything else) with
        this pipeline; only its cache differs, and this pipeline's cache is
        left as it is.  The serving layer extracts through a view without a
        cache, so scoring digests nothing and looks nothing up.
        """
        view = copy.copy(self)
        view.cache = cache
        return view

    def transform_blocks(
        self,
        matchers: Sequence[HumanMatcher],
        precomputed: Optional[dict[str, FeatureBlock]] = None,
    ) -> dict[str, FeatureBlock]:
        """Per-set feature blocks for ``matchers``, keyed by set name.

        ``precomputed`` blocks (e.g. shared by a study driver) short-circuit
        extraction for their sets; the remaining sets go through the cache
        when one is attached, under one population digest per call.
        """
        if not self._fitted:
            raise RuntimeError("FeaturePipeline must be fitted before transform")
        blocks: dict[str, FeatureBlock] = {}
        population_key: Optional[str] = None
        for name in self.include:
            if precomputed is not None and name in precomputed:
                block = precomputed[name]
                if block.n_matchers != len(matchers):
                    raise ValueError(
                        f"precomputed block for {name!r} has {block.n_matchers} rows "
                        f"for a population of {len(matchers)}"
                    )
            else:
                extractor = self._extractors[name]
                if self.cache is not None:
                    if population_key is None:
                        population_key = population_fingerprint(matchers)
                    block = self.cache.get_or_compute(
                        name,
                        matchers,
                        extractor.config_fingerprint(),
                        lambda extractor=extractor: extractor.extract_batch(matchers),
                        population_key,
                    )
                else:
                    block = extractor.extract_batch(matchers)
            blocks[name] = block
        return blocks

    def transform(
        self,
        matchers: Sequence[HumanMatcher],
        precomputed: Optional[dict[str, FeatureBlock]] = None,
    ) -> np.ndarray:
        """Feature matrix for ``matchers``, columns ordered as ``feature_names_``."""
        blocks = self.transform_blocks(matchers, precomputed)
        fused = FeatureBlock.hstack([blocks[name] for name in self.include])
        if list(fused.names) != self.feature_names_:
            # Defensive: a subclassed extractor may order names differently
            # between fit and transform; reindex by name.
            index = {name: column for column, name in enumerate(fused.names)}
            order = [index[name] for name in self.feature_names_]
            return np.array(fused.matrix[:, order])
        return np.array(fused.matrix)

    def fit_transform(
        self, matchers: Sequence[HumanMatcher], labels: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return self.fit(matchers, labels).transform(matchers)

    def extract_one(self, matcher: HumanMatcher) -> FeatureVector:
        """The fused feature vector of a single matcher (compatibility shim)."""
        row = self.transform([matcher])[0]
        return FeatureVector(dict(zip(self.feature_names_, row)))

    def feature_set_of(self, feature_name: str) -> FeatureSetName:
        """The feature set a fused feature name belongs to (by prefix)."""
        for set_name in FEATURE_SET_NAMES:
            if feature_name.startswith(f"{set_name}_"):
                return set_name
        raise ValueError(f"feature {feature_name!r} does not belong to a known feature set")

    def __repr__(self) -> str:
        return f"FeaturePipeline(include={self.include}, fitted={self._fitted})"

"""Tests for the batch-first feature engine: blocks, batch extraction, cache."""

import numpy as np
import pytest

from repro.core.ablation import run_ablation
from repro.core.characterizer import MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.core.features import (
    BehavioralFeatures,
    FeatureBlock,
    FeatureBlockCache,
    FeaturePipeline,
    LRSMFeatures,
    MouseFeatures,
    SequentialFeatures,
    SpatialFeatures,
    matcher_fingerprint,
    population_fingerprint,
)
from repro.core.features import cache as cache_module
from repro.core.features import pipeline as pipeline_module
from repro.core.importance import permutation_importance
from repro.matching.history import DecisionHistory
from repro.matching.matcher import HumanMatcher
from repro.matching.mouse import MouseEvent, MouseEventType, MovementMap
from repro.ml.forest import RandomForestClassifier

TINY_NEURAL_CONFIG = {
    "seq": {"hidden_dim": 4, "dense_dim": 6, "max_sequence_length": 12, "epochs": 2},
    "spa": {"n_filters": 2, "epochs": 1, "pretrain_samples": 8},
}


class TestFeatureBlock:
    def test_shape_and_names(self):
        block = FeatureBlock(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert block.n_matchers == 2
        assert block.n_features == 2
        np.testing.assert_allclose(block.column("b"), [2.0, 4.0])
        np.testing.assert_allclose(block.row(1), [3.0, 4.0])

    def test_row_vector_round_trip(self):
        block = FeatureBlock(["a", "b"], np.array([[1.0, 2.0]]))
        vector = block.row_vector(0)
        assert vector["a"] == 1.0
        assert vector.names() == ["a", "b"]

    def test_non_finite_sanitized(self):
        block = FeatureBlock(["a", "b"], np.array([[np.nan, np.inf]]))
        np.testing.assert_allclose(block.matrix, [[0.0, 0.0]])

    def test_matrix_is_frozen(self):
        block = FeatureBlock(["a"], np.array([[1.0]]))
        with pytest.raises(ValueError):
            block.matrix[0, 0] = 2.0

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeatureBlock(["a"], np.zeros((2, 2)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureBlock(["a", "a"], np.zeros((1, 2)))

    def test_hstack(self):
        left = FeatureBlock(["a"], np.array([[1.0], [2.0]]))
        right = FeatureBlock(["b"], np.array([[3.0], [4.0]]))
        fused = FeatureBlock.hstack([left, right])
        assert fused.names == ("a", "b")
        np.testing.assert_allclose(fused.matrix, [[1.0, 3.0], [2.0, 4.0]])

    def test_hstack_row_mismatch_rejected(self):
        left = FeatureBlock(["a"], np.zeros((2, 1)))
        right = FeatureBlock(["b"], np.zeros((3, 1)))
        with pytest.raises(ValueError):
            FeatureBlock.hstack([left, right])

    def test_select_rows(self):
        block = FeatureBlock(["a"], np.array([[1.0], [2.0], [3.0]]))
        subset = block.select_rows([2, 0])
        np.testing.assert_allclose(subset.matrix, [[3.0], [1.0]])


class TestBatchEqualsScalar:
    """extract_batch must equal stacked per-matcher extract for all five sets.

    The offline sets are computed row-by-row with identical scalar
    expressions, so they match bitwise.  The neural sets run one batched
    forward pass whose BLAS matmuls may differ from single-sample calls in
    the last unit of precision, so they match to ~1e-12.
    """

    def _assert_batch_matches_scalar(self, extractor, matchers, exact=True):
        block = extractor.extract_batch(matchers)
        for index, matcher in enumerate(matchers):
            vector = extractor.extract(matcher)
            assert vector.names() == list(block.names)
            stacked = vector.to_array(block.names)
            if exact:
                np.testing.assert_array_equal(
                    stacked, block.row(index),
                    err_msg=f"row {index} of {type(extractor).__name__}",
                )
            else:
                np.testing.assert_allclose(
                    stacked, block.row(index), rtol=1e-12, atol=1e-12,
                    err_msg=f"row {index} of {type(extractor).__name__}",
                )

    def test_lrsm(self, small_cohort):
        self._assert_batch_matches_scalar(LRSMFeatures(), small_cohort)

    def test_behavioral_unfitted(self, small_cohort):
        self._assert_batch_matches_scalar(BehavioralFeatures(), small_cohort)

    def test_behavioral_fitted(self, small_cohort):
        extractor = BehavioralFeatures().fit(small_cohort)
        self._assert_batch_matches_scalar(extractor, small_cohort)

    def test_mouse(self, small_cohort):
        self._assert_batch_matches_scalar(MouseFeatures(), small_cohort)

    def test_sequential(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        extractor = SequentialFeatures(**TINY_NEURAL_CONFIG["seq"], random_state=0)
        extractor.fit(small_cohort, labels)
        self._assert_batch_matches_scalar(extractor, small_cohort, exact=False)

    def test_spatial(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        extractor = SpatialFeatures(**TINY_NEURAL_CONFIG["spa"], random_state=0)
        extractor.fit(small_cohort, labels)
        self._assert_batch_matches_scalar(extractor, small_cohort, exact=False)

    def test_empty_population(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        for extractor in (LRSMFeatures(), BehavioralFeatures(), MouseFeatures()):
            block = extractor.extract_batch([])
            assert block.n_matchers == 0
            assert block.n_features > 0


class TestFingerprints:
    def test_fingerprint_is_stable(self, small_cohort):
        assert matcher_fingerprint(small_cohort[0]) == matcher_fingerprint(small_cohort[0])
        assert population_fingerprint(small_cohort) == population_fingerprint(list(small_cohort))

    def test_fingerprint_distinguishes_matchers(self, small_cohort):
        fingerprints = {matcher_fingerprint(m) for m in small_cohort}
        assert len(fingerprints) == len(small_cohort)

    def test_truncation_changes_fingerprint(self, small_cohort):
        matcher = small_cohort[0]
        truncated = matcher.truncated(3)
        assert matcher_fingerprint(matcher) != matcher_fingerprint(truncated)

    def test_order_sensitive(self, small_cohort):
        forward = population_fingerprint(small_cohort)
        backward = population_fingerprint(list(reversed(small_cohort)))
        assert forward != backward

    def test_pinned_digest(self, example_history):
        # The digest bytes are a cache-key contract: this value predates
        # DecisionHistory.columns() and must never change.
        events = [
            MouseEvent(x=100, y=100, event_type=MouseEventType.MOVE, timestamp=1.0),
            MouseEvent(x=300, y=600, event_type=MouseEventType.LEFT_CLICK, timestamp=3.0),
            MouseEvent(x=400, y=650, event_type=MouseEventType.SCROLL, timestamp=4.0),
        ]
        movement = MovementMap(events, screen=(768, 1024))
        matcher = HumanMatcher("pinned", example_history, movement)
        assert matcher_fingerprint(matcher) == "5229bf30fd58e837bd7accb913d9bf76"
        empty = HumanMatcher("empty", DecisionHistory(), MovementMap())
        assert matcher_fingerprint(empty) == "cf6a64d2c33a51af514661b7cda84b4e"


class TestFeatureBlockCache:
    def test_miss_then_hit(self, small_cohort):
        cache = FeatureBlockCache()
        extractor = MouseFeatures()
        calls = []

        def compute():
            calls.append(1)
            return extractor.extract_batch(small_cohort)

        first = cache.get_or_compute("mou", small_cohort, extractor.config_fingerprint(), compute)
        second = cache.get_or_compute("mou", small_cohort, extractor.config_fingerprint(), compute)
        assert len(calls) == 1
        assert second is first
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_population_change_invalidates(self, small_cohort):
        cache = FeatureBlockCache()
        extractor = MouseFeatures()
        cache.get_or_compute(
            "mou", small_cohort, extractor.config_fingerprint(),
            lambda: extractor.extract_batch(small_cohort),
        )
        subset = small_cohort[:4]
        cache.get_or_compute(
            "mou", subset, extractor.config_fingerprint(),
            lambda: extractor.extract_batch(subset),
        )
        assert cache.stats()["misses"] == 2

    def test_config_change_invalidates(self, small_cohort):
        cache = FeatureBlockCache()
        unfitted = BehavioralFeatures()
        fitted = BehavioralFeatures().fit(small_cohort)
        assert unfitted.config_fingerprint() != fitted.config_fingerprint()
        cache.get_or_compute(
            "beh", small_cohort, unfitted.config_fingerprint(),
            lambda: unfitted.extract_batch(small_cohort),
        )
        block = cache.get_or_compute(
            "beh", small_cohort, fitted.config_fingerprint(),
            lambda: fitted.extract_batch(small_cohort),
        )
        assert cache.stats()["misses"] == 2
        # The fitted block has non-zero consensus aggregates.
        assert np.any(block.column("beh_avgConsensus") > 0)

    def test_row_count_mismatch_rejected(self, small_cohort):
        cache = FeatureBlockCache()
        with pytest.raises(ValueError):
            cache.get_or_compute(
                "mou", small_cohort, "cfg",
                lambda: FeatureBlock(["x"], np.zeros((1, 1))),
            )

    def test_lru_eviction(self, small_cohort):
        cache = FeatureBlockCache(max_entries=2)
        extractor = MouseFeatures()
        for subset_size in (2, 3, 4):
            subset = small_cohort[:subset_size]
            cache.get_or_compute(
                "mou", subset, extractor.config_fingerprint(),
                lambda subset=subset: extractor.extract_batch(subset),
            )
        assert len(cache) == 2

    def test_get_or_fit_memoises(self):
        cache = FeatureBlockCache()
        calls = []
        for _ in range(3):
            cache.get_or_fit("key", lambda: calls.append(1) or object())
        assert len(calls) == 1
        assert cache.stats()["fit_hits"] == 2

    def test_clear(self, small_cohort):
        cache = FeatureBlockCache()
        extractor = MouseFeatures()
        cache.get_or_compute(
            "mou", small_cohort, extractor.config_fingerprint(),
            lambda: extractor.extract_batch(small_cohort),
        )
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0


class TestPipelineWithCache:
    def test_cached_transform_matches_uncached(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        plain = FeaturePipeline(include=("lrsm", "beh", "mou"))
        cached = FeaturePipeline(include=("lrsm", "beh", "mou"), cache=FeatureBlockCache())
        X_plain = plain.fit(small_cohort, labels).transform(small_cohort)
        X_cached = cached.fit(small_cohort, labels).transform(small_cohort)
        np.testing.assert_array_equal(X_plain, X_cached)

    def test_repeated_transform_hits_cache(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        cache = FeatureBlockCache()
        pipeline = FeaturePipeline(include=("lrsm", "mou"), cache=cache)
        pipeline.fit(small_cohort, labels)
        pipeline.transform(small_cohort)
        misses = cache.stats()["misses"]
        pipeline.transform(small_cohort)
        assert cache.stats()["misses"] == misses
        assert cache.stats()["hits"] >= 2

    def test_pipelines_share_cache(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        cache = FeatureBlockCache()
        first = FeaturePipeline(include=("lrsm", "mou"), cache=cache)
        first.fit(small_cohort, labels).transform(small_cohort)
        second = FeaturePipeline(include=("mou",), cache=cache)
        second.fit(small_cohort, labels)
        before = cache.stats()["misses"]
        second.transform(small_cohort)
        assert cache.stats()["misses"] == before  # mou block reused

    def test_transform_blocks_keys(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        pipeline = FeaturePipeline(include=("lrsm", "beh"))
        pipeline.fit(small_cohort, labels)
        blocks = pipeline.transform_blocks(small_cohort)
        assert set(blocks) == {"lrsm", "beh"}
        assert all(block.n_matchers == len(small_cohort) for block in blocks.values())

    def test_one_population_fingerprint_per_call(self, small_cohort, cohort_labels, monkeypatch):
        labels, _ = cohort_labels
        cache = FeatureBlockCache()
        pipeline = FeaturePipeline(include=("lrsm", "beh", "mou"), cache=cache)
        pipeline.fit(small_cohort, labels)
        calls = []

        def counted(matchers):
            calls.append(len(matchers))
            return population_fingerprint(matchers)

        monkeypatch.setattr(cache_module, "population_fingerprint", counted)
        monkeypatch.setattr(pipeline_module, "population_fingerprint", counted)
        pipeline.transform_blocks(small_cohort)
        assert calls == [len(small_cohort)]
        assert cache.stats()["misses"] == 3
        pipeline.transform_blocks(small_cohort)
        assert calls == [len(small_cohort)] * 2
        assert cache.stats()["hits"] == 3 and cache.stats()["misses"] == 3
        # The keys are the ones a per-set lookup would compute.
        key = population_fingerprint(small_cohort)
        assert list(cache._blocks) == [
            (name, key, pipeline._extractors[name].config_fingerprint())
            for name in ("lrsm", "beh", "mou")
        ]

    def test_precomputed_blocks_used(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        pipeline = FeaturePipeline(include=("lrsm", "mou"))
        pipeline.fit(small_cohort, labels)
        blocks = pipeline.transform_blocks(small_cohort)
        doctored = FeatureBlock(
            blocks["mou"].names, np.zeros_like(blocks["mou"].matrix)
        )
        X = pipeline.transform(small_cohort, precomputed={"mou": doctored})
        mou_columns = [pipeline.feature_names_.index(n) for n in doctored.names]
        np.testing.assert_array_equal(X[:, mou_columns], 0.0)

    def test_precomputed_row_mismatch_rejected(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        pipeline = FeaturePipeline(include=("mou",))
        pipeline.fit(small_cohort, labels)
        bad = FeatureBlock(["mou_x"], np.zeros((1, 1)))
        with pytest.raises(ValueError):
            pipeline.transform(small_cohort, precomputed={"mou": bad})

    def test_refit_does_not_corrupt_cached_neural_state(self, small_cohort, cohort_labels):
        """A later fit on a pipeline holding a cached extractor must fit a
        fresh instance, never retrain the shared cached one in place."""
        labels, _ = cohort_labels
        cohort1, cohort2 = small_cohort[:8], small_cohort[8:]
        labels1, labels2 = labels[:8], labels[8:]
        cache = FeatureBlockCache()
        kwargs = dict(
            include=("seq",), neural_config=TINY_NEURAL_CONFIG,
            random_state=0, cache=cache,
        )
        first = FeaturePipeline(**kwargs)
        first.fit(cohort1, labels1)
        reference = first.transform(cohort1)
        second = FeaturePipeline(**kwargs)
        second.fit(cohort1, labels1)   # cache hit: shares first's extractor
        second.fit(cohort2, labels2)   # miss: must not mutate the shared one
        np.testing.assert_array_equal(first.transform(cohort1), reference)

    def test_refit_does_not_mutate_shared_consensus(self, small_cohort, cohort_labels):
        """Refitting must not re-wire the consensus of a cached extractor.

        The block cache can mask fit-state corruption, so this checks
        extraction of a population the corrupted extractor has never cached.
        """
        labels, _ = cohort_labels
        cohort1, cohort2 = small_cohort[:8], small_cohort[8:]
        labels1, labels2 = labels[:8], labels[8:]
        cfg = dict(include=("seq",), neural_config=TINY_NEURAL_CONFIG, random_state=0)
        reference_pipeline = FeaturePipeline(**cfg)
        reference_pipeline.fit(cohort1, labels1)
        reference = reference_pipeline.transform(cohort2)

        cache = FeatureBlockCache()
        first = FeaturePipeline(cache=cache, **cfg)
        first.fit(cohort1, labels1)
        second = FeaturePipeline(cache=cache, **cfg)
        second.fit(cohort1, labels1)   # hit: shares first's extractor
        second.fit(cohort2, labels2)   # must not touch the shared instance
        np.testing.assert_array_equal(first.transform(cohort2), reference)

    def test_characterizer_rejects_pipeline_with_different_cache(
        self, small_cohort, cohort_labels
    ):
        from repro.core.characterizer import MExICharacterizer

        pipeline = FeaturePipeline(include=("lrsm",))
        with pytest.raises(ValueError):
            MExICharacterizer(pipeline=pipeline, cache=FeatureBlockCache())
        assert pipeline.cache is None  # caller's pipeline untouched

    def test_cache_with_use_cache_false_rejected(self, small_cohort, cohort_labels):
        labels, thresholds = cohort_labels
        with pytest.raises(ValueError):
            run_ablation(
                small_cohort[:10], labels[:10], small_cohort[10:],
                labels[10:], feature_sets=("lrsm",),
                cache=FeatureBlockCache(), use_cache=False,
            )

    def test_neural_fit_memoised_across_pipelines(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        cache = FeatureBlockCache()
        kwargs = dict(
            include=("lrsm", "seq"), neural_config=TINY_NEURAL_CONFIG,
            random_state=0, cache=cache,
        )
        first = FeaturePipeline(**kwargs)
        X_first = first.fit(small_cohort, labels).transform(small_cohort)
        fit_misses = cache.stats()["fit_misses"]
        second = FeaturePipeline(**kwargs)
        X_second = second.fit(small_cohort, labels).transform(small_cohort)
        assert cache.stats()["fit_misses"] == fit_misses  # LSTM fit reused
        np.testing.assert_array_equal(X_first, X_second)


class TestPretrainedTrunkMemo:
    """Phi_Spa donor trunks are pre-trained once per configuration per cache."""

    @staticmethod
    def _extractor(random_state=0):
        from repro.core.features.spatial import SpatialFeatures

        return SpatialFeatures(n_filters=2, epochs=1, pretrain_samples=8, random_state=random_state)

    def test_second_fit_reuses_trunks_bitwise(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        matchers = small_cohort[:8]
        cache = FeatureBlockCache()
        for label_matrix in (labels[:8], 1.0 - labels[:8]):
            hits = cache.stats()["fit_hits"]
            cached = self._extractor().fit(matchers, label_matrix, cache=cache)
            alone = self._extractor().fit(matchers, label_matrix)
            np.testing.assert_array_equal(
                cached.extract_batch(matchers).matrix, alone.extract_batch(matchers).matrix
            )
        # Four channels, each pre-trained on the first fit and reused on the second.
        assert cache.stats()["fit_misses"] == 4
        assert cache.stats()["fit_hits"] - hits == 4

    def test_unseeded_fits_are_not_memoised(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        cache = FeatureBlockCache()
        self._extractor(random_state=None).fit(small_cohort[:8], labels[:8], cache=cache)
        assert cache.stats()["fit_entries"] == 0


class TestAblationCacheTransparency:
    def test_identical_accuracies_with_and_without_cache(self, small_cohort, cohort_labels):
        labels, thresholds = cohort_labels
        train, test = small_cohort[:11], small_cohort[11:]
        train_labels = labels[:11]
        test_profiles, _ = characterize_population(test, thresholds)
        test_labels = labels_matrix(test_profiles)

        kwargs = dict(
            variant=MExIVariant.EMPTY,
            feature_sets=("lrsm", "beh", "seq"),
            neural_config=TINY_NEURAL_CONFIG,
            random_state=0,
        )
        uncached = run_ablation(
            train, train_labels, test, test_labels, use_cache=False, **kwargs
        )
        cache = FeatureBlockCache()
        cached = run_ablation(
            train, train_labels, test, test_labels, cache=cache, **kwargs
        )
        assert [(r.mode, r.feature_set) for r in cached] == [
            (r.mode, r.feature_set) for r in uncached
        ]
        for cached_row, uncached_row in zip(cached, uncached):
            assert cached_row.accuracies == uncached_row.accuracies
        assert cache.stats()["hits"] > 0


class TestImportanceWithBlocks:
    def test_block_input(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        model = RandomForestClassifier(n_estimators=10, max_depth=4, random_state=0)
        model.fit(X, y)
        block = FeatureBlock(["relevant", "noise1", "noise2"], X)
        result = permutation_importance(model, block, y, n_repeats=3, random_state=0)
        assert result.top(1)[0][0] == "relevant"

    def test_matrix_without_names_rejected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(int)
        model = RandomForestClassifier(n_estimators=5, random_state=0)
        model.fit(X, y)
        with pytest.raises(ValueError):
            permutation_importance(model, X, y)

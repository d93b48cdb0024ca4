"""Tests for the five MExI feature sets and the fused pipeline."""

import numpy as np
import pytest

from repro.core.expert_model import EXPERT_CHARACTERISTICS
from repro.core.features import (
    BehavioralFeatures,
    ConsensusModel,
    FeaturePipeline,
    LRSMFeatures,
    MouseFeatures,
    SequentialFeatures,
    SpatialFeatures,
)
from repro.core.features.base import FeatureVector
from repro.core.features.pipeline import FEATURE_SET_NAMES
from repro.matching.history import DecisionHistory
from repro.matching.matcher import HumanMatcher
from repro.matching.mouse import MovementMap

TINY_NEURAL_CONFIG = {
    "seq": {"hidden_dim": 4, "dense_dim": 6, "max_sequence_length": 12, "epochs": 2},
    "spa": {"n_filters": 2, "epochs": 1, "pretrain_samples": 8},
}


class TestFeatureVector:
    def test_set_get_and_order(self):
        vector = FeatureVector({"a": 1.0, "b": 2.0})
        assert vector["a"] == 1.0
        assert vector.names() == ["a", "b"]
        np.testing.assert_allclose(vector.to_array(["b", "a"]), [2.0, 1.0])

    def test_nan_replaced_with_zero(self):
        vector = FeatureVector({"a": float("nan"), "b": float("inf")})
        assert vector["a"] == 0.0
        assert vector["b"] == 0.0

    def test_missing_name_defaults_to_zero(self):
        vector = FeatureVector({"a": 1.0})
        np.testing.assert_allclose(vector.to_array(["a", "missing"]), [1.0, 0.0])

    def test_update(self):
        vector = FeatureVector({"a": 1.0})
        vector.update(FeatureVector({"b": 2.0}))
        assert len(vector) == 2


class TestConsensusModel:
    def test_counts(self, small_cohort):
        model = ConsensusModel().fit(small_cohort)
        assert model.is_fitted
        assert model.n_matchers == len(small_cohort)
        agreements = model.history_agreement(small_cohort[0].history)
        assert len(agreements) == len(small_cohort[0].history)
        assert all(0.0 <= a <= 1.0 for a in agreements)
        # Every pair the matcher itself selected is counted at least once.
        some_pair = next(iter(small_cohort[0].matrix().nonzero_entries()))
        assert model.count(some_pair) >= 1

    def test_unfitted_agreement_is_zero(self):
        assert ConsensusModel().agreement((0, 0)) == 0.0
        assert ConsensusModel().agreements(np.array([0, 3]), np.array([0, 1])).tolist() == [0.0, 0.0]

    def test_fit_without_selected_pairs_agrees_nowhere(self):
        empty = HumanMatcher("empty", DecisionHistory(shape=(2, 2)), MovementMap())
        model = ConsensusModel().fit([empty])
        assert model.is_fitted
        assert model.agreements(np.array([0, 1]), np.array([0, 1])).tolist() == [0.0, 0.0]

    def test_agreements_bitwise_equal_to_agreement(self, small_cohort):
        # n_matchers = 7 makes most count / n ratios inexact.
        model = ConsensusModel().fit(small_cohort[:7])
        rows, cols = np.meshgrid(np.arange(-1, 16), np.arange(-1, 12), indexing="ij")
        rows, cols = rows.ravel(), cols.ravel()
        vectorised = model.agreements(rows, cols)
        scalar = np.array([model.agreement((r, c)) for r, c in zip(rows.tolist(), cols.tolist())])
        assert vectorised.tobytes() == scalar.tobytes()
        # Pairs outside the fitted counts (and negative indices) map to 0.
        assert vectorised[(rows < 0) | (cols < 0) | (rows >= 12) | (cols >= 9)].max() == 0.0

    def test_history_agreement_wraps_agreements(self, small_cohort):
        model = ConsensusModel().fit(small_cohort)
        history = small_cohort[3].history
        expected = [model.agreement(decision.pair) for decision in history]
        assert model.history_agreement(history) == expected

    def test_refit_rebuilds_lookup(self, small_cohort):
        model = ConsensusModel().fit(small_cohort[:4])
        model.agreements(np.array([0]), np.array([0]))
        model.fit(small_cohort)
        pair = next(iter(small_cohort[-1].matrix().nonzero_entries()))
        assert model.agreements(np.array([pair[0]]), np.array([pair[1]]))[0] == model.agreement(pair)

    def test_refit_changes_memoised_fingerprint(self, small_cohort):
        model = ConsensusModel().fit(small_cohort[:4])
        first = model.fingerprint()
        assert model.fingerprint() == first
        model.fit(small_cohort)
        assert model.fingerprint() != first
        assert model.fingerprint() == ConsensusModel().fit(small_cohort).fingerprint()
        assert model.fit(small_cohort[:4]).fingerprint() == first


class TestOfflineFeatureSets:
    def test_lrsm_features(self, small_cohort):
        features = LRSMFeatures().extract(small_cohort[0])
        assert len(features) >= 15
        assert all(name.startswith("lrsm_") for name in features.names())
        assert "lrsm_dom" in features

    def test_behavioral_features(self, small_cohort):
        extractor = BehavioralFeatures()
        extractor.fit(small_cohort)
        features = extractor.extract(small_cohort[0])
        assert "beh_avgConf" in features
        assert "beh_countDecisions" in features
        assert "beh_avgConsensus" in features
        assert features["beh_countDecisions"] == small_cohort[0].n_decisions
        assert 0.0 <= features["beh_avgConf"] <= 1.0

    def test_behavioral_without_fit_has_zero_consensus(self, small_cohort):
        features = BehavioralFeatures().extract(small_cohort[0])
        assert features["beh_avgConsensus"] == 0.0

    def test_mouse_features(self, small_cohort):
        features = MouseFeatures().extract(small_cohort[0])
        assert "mou_totalLength" in features
        assert "mou_scrollRatio" in features
        assert features["mou_countEvents"] == len(small_cohort[0].movement)
        mass = features["mou_massTopLeft"] + features["mou_massTopRight"] + features["mou_massBottom"]
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestNeuralFeatureSets:
    def test_sequential_features_require_fit(self, small_cohort):
        with pytest.raises(RuntimeError):
            SequentialFeatures().extract(small_cohort[0])

    def test_sequential_features_fit_and_extract(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        extractor = SequentialFeatures(hidden_dim=4, dense_dim=6, max_sequence_length=12, epochs=2)
        extractor.fit(small_cohort, labels)
        features = extractor.extract(small_cohort[0])
        assert len(features) == len(EXPERT_CHARACTERISTICS)
        assert all(0.0 <= value <= 1.0 for _, value in features.items())

    def test_sequential_fit_requires_labels(self, small_cohort):
        with pytest.raises(ValueError):
            SequentialFeatures().fit(small_cohort, None)

    def test_spatial_features_fit_and_extract(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        extractor = SpatialFeatures(n_filters=2, epochs=1, pretrain_samples=8, random_state=0)
        extractor.fit(small_cohort, labels)
        features = extractor.extract(small_cohort[0])
        # Four heat-map channels times four characteristics.
        assert len(features) == 16
        assert all(0.0 <= value <= 1.0 for _, value in features.items())


class TestFeaturePipeline:
    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError):
            FeaturePipeline(include=("lrsm", "bogus"))

    def test_empty_include_rejected(self):
        with pytest.raises(ValueError):
            FeaturePipeline(include=())

    def test_offline_pipeline(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        pipeline = FeaturePipeline(include=("lrsm", "beh", "mou"))
        X = pipeline.fit_transform(small_cohort, labels)
        assert X.shape[0] == len(small_cohort)
        assert X.shape[1] == len(pipeline.feature_names_)
        assert np.all(np.isfinite(X))

    def test_neural_pipeline_requires_labels(self, small_cohort):
        pipeline = FeaturePipeline(neural_config=TINY_NEURAL_CONFIG)
        with pytest.raises(ValueError):
            pipeline.fit(small_cohort)

    def test_full_pipeline_and_feature_sets(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        pipeline = FeaturePipeline(neural_config=TINY_NEURAL_CONFIG, random_state=0)
        X = pipeline.fit_transform(small_cohort, labels)
        assert X.shape == (len(small_cohort), len(pipeline.feature_names_))
        sets_present = {pipeline.feature_set_of(name) for name in pipeline.feature_names_}
        assert sets_present == set(FEATURE_SET_NAMES)

    def test_transform_before_fit_raises(self, small_cohort):
        with pytest.raises(RuntimeError):
            FeaturePipeline(include=("lrsm",)).transform(small_cohort)

    def test_transform_unseen_matcher(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        pipeline = FeaturePipeline(include=("lrsm", "beh", "mou"))
        pipeline.fit(small_cohort[:-2], labels[:-2])
        X = pipeline.transform(small_cohort[-2:])
        assert X.shape == (2, len(pipeline.feature_names_))

    def test_feature_set_of_unknown_name(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        pipeline = FeaturePipeline(include=("lrsm",))
        pipeline.fit(small_cohort, labels)
        with pytest.raises(ValueError):
            pipeline.feature_set_of("unprefixed_feature")

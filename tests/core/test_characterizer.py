"""Tests for the MExI characterizer and the baselines."""

import numpy as np
import pytest

from repro.core.baselines import (
    BehavioralBaseline,
    ConfidenceBaseline,
    FrequencyBaseline,
    LRSMBaseline,
    QualificationTestBaseline,
    RandomBaseline,
    SelfAssessmentBaseline,
    default_baselines,
)
from repro.core.characterizer import MExICharacterizer, MExIVariant, default_classifier_bank
from repro.core.expert_model import EXPERT_CHARACTERISTICS
from repro.ml.base import BaseClassifier

TINY_NEURAL_CONFIG = {
    "seq": {"hidden_dim": 4, "dense_dim": 6, "max_sequence_length": 12, "epochs": 2},
    "spa": {"n_filters": 2, "epochs": 1, "pretrain_samples": 8},
}



class _NearestCentroid(BaseClassifier):
    """A classifier defined outside ``repro.ml``, for the ``classifier_bank`` hook."""

    def _fit(self, X, y):
        self.centroids_ = np.array([X[y == cls].mean(axis=0) for cls in self.classes_])

    def _predict_proba(self, X):
        distance = ((X[:, None, :] - self.centroids_[None]) ** 2).sum(axis=2)
        weights = np.exp(distance.min(axis=1, keepdims=True) - distance)
        return weights / weights.sum(axis=1, keepdims=True)


class TestMExICharacterizer:
    def test_fit_predict_offline_features(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        model = MExICharacterizer(
            variant=MExIVariant.SUB_50, feature_sets=("lrsm", "beh", "mou"), random_state=0
        )
        model.fit(small_cohort[:12], labels[:12])
        predictions = model.predict(small_cohort[12:])
        assert predictions.shape == (4, 4)
        assert set(np.unique(predictions)) <= {0, 1}
        assert model.is_fitted

    def test_predict_proba_range(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        model = MExICharacterizer(
            variant=MExIVariant.EMPTY, feature_sets=("lrsm", "beh"), random_state=0
        )
        model.fit(small_cohort[:12], labels[:12])
        probabilities = model.predict_proba(small_cohort[12:])
        assert probabilities.shape == (4, 4)
        assert probabilities.min() >= 0.0
        assert probabilities.max() <= 1.0

    def test_full_pipeline_variant(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        model = MExICharacterizer(
            variant=MExIVariant.SUB_50,
            neural_config=TINY_NEURAL_CONFIG,
            random_state=0,
        )
        model.fit(small_cohort[:12], labels[:12])
        predictions = model.predict(small_cohort[12:])
        assert predictions.shape == (4, len(EXPERT_CHARACTERISTICS))

    def test_selected_classifiers_reported(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        model = MExICharacterizer(feature_sets=("lrsm", "beh"), random_state=0)
        model.fit(small_cohort, labels)
        selected = model.selected_classifiers()
        assert set(selected) == set(EXPERT_CHARACTERISTICS)

    def test_learns_on_training_data(self, small_cohort, cohort_labels):
        """MExI should recover the training labels far better than chance."""
        labels, _ = cohort_labels
        model = MExICharacterizer(
            variant=MExIVariant.EMPTY, feature_sets=("lrsm", "beh", "mou"), random_state=0
        )
        model.fit(small_cohort, labels)
        train_predictions = model.predict(small_cohort)
        train_accuracy = (train_predictions == labels).mean()
        assert train_accuracy > 0.75

    def test_unfitted_predict_raises(self, small_cohort):
        with pytest.raises(RuntimeError):
            MExICharacterizer().predict(small_cohort)
        with pytest.raises(RuntimeError):
            MExICharacterizer().selected_classifiers()

    def test_invalid_labels_rejected(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        model = MExICharacterizer(feature_sets=("lrsm",))
        with pytest.raises(ValueError):
            model.fit(small_cohort, labels[:, :2])
        with pytest.raises(ValueError):
            model.fit(small_cohort, labels[:-1])
        with pytest.raises(ValueError):
            model.fit([], np.zeros((0, 4)))

    def test_variant_configs(self):
        assert MExIVariant.EMPTY.submatcher_config.window_sizes == ()
        assert MExIVariant.SUB_50.submatcher_config.window_sizes == (50,)
        assert MExIVariant.SUB_70.submatcher_config.window_sizes == (30, 40, 50, 60, 70)

    def test_classifier_bank_contents(self):
        bank = default_classifier_bank()
        names = {type(c).__name__ for c in bank}
        assert "RandomForestClassifier" in names
        assert "LinearSVC" in names

    def test_custom_classifier_bank(self, small_cohort, cohort_labels):
        """Any BaseClassifier can stand in for the default bank."""
        labels, _ = cohort_labels
        model = MExICharacterizer(
            variant=MExIVariant.EMPTY,
            feature_sets=("lrsm", "beh"),
            classifier_bank=lambda: [_NearestCentroid()],
            random_state=0,
        ).fit(small_cohort, labels)
        assert set(model.selected_classifiers().values()) <= {"_NearestCentroid", "constant"}
        assert "_NearestCentroid" in model.selected_classifiers().values()
        predictions = model.predict(small_cohort)
        assert predictions.shape == labels.shape
        assert set(np.unique(predictions)) <= {0, 1}


class TestBaselines:
    def test_default_baselines_order(self):
        names = [b.name for b in default_baselines()]
        assert names == ["Rand", "Rand_Freq", "Conf", "Qual. Test", "Self-Assess", "LRSM", "BEH"]

    def test_random_baseline_shape(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        baseline = RandomBaseline(random_state=0)
        baseline.fit(small_cohort, labels)
        predictions = baseline.predict(small_cohort)
        assert predictions.shape == labels.shape

    def test_frequency_baseline_respects_rates(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        baseline = FrequencyBaseline(random_state=0)
        baseline.fit(small_cohort, labels)
        predictions = baseline.predict(small_cohort * 20)  # large sample for stable rates
        observed = predictions.mean(axis=0)
        expected = labels.mean(axis=0)
        np.testing.assert_allclose(observed, expected, atol=0.2)

    def test_frequency_baseline_requires_fit(self, small_cohort):
        with pytest.raises(RuntimeError):
            FrequencyBaseline().predict(small_cohort)

    def test_confidence_baseline_threshold(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        baseline = ConfidenceBaseline()
        baseline.fit(small_cohort, labels)
        predictions = baseline.predict(small_cohort)
        # Roughly half the population sits above the median confidence.
        positive_rate = predictions[:, 0].mean()
        assert 0.2 <= positive_rate <= 0.8

    def test_qualification_test_baseline(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        baseline = QualificationTestBaseline(n_qualification_decisions=5)
        baseline.fit(small_cohort, labels)
        predictions = baseline.predict(small_cohort)
        # Each matcher gets an all-or-nothing prediction.
        assert set(predictions.sum(axis=1).tolist()) <= {0, 4}

    def test_self_assessment_baseline(self, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        baseline = SelfAssessmentBaseline()
        baseline.fit(small_cohort, labels)
        predictions = baseline.predict(small_cohort)
        assert predictions.shape == labels.shape

    @pytest.mark.parametrize("baseline_cls", [LRSMBaseline, BehavioralBaseline])
    def test_learned_baselines(self, baseline_cls, small_cohort, cohort_labels):
        labels, _ = cohort_labels
        baseline = baseline_cls(random_state=0)
        baseline.fit(small_cohort[:12], labels[:12])
        predictions = baseline.predict(small_cohort[12:])
        assert predictions.shape == (4, 4)

"""Tests for the classical-classifier substrate (all models share the API)."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    GaussianNB,
    LinearSVC,
    LogisticRegression,
    RandomForestClassifier,
)
from repro.ml.base import clone

ALL_CLASSIFIERS = [
    LogisticRegression(n_iterations=150),
    LinearSVC(n_iterations=150),
    DecisionTreeClassifier(max_depth=5, random_state=0),
    RandomForestClassifier(n_estimators=15, max_depth=5, random_state=0),
    GaussianNB(),
]


@pytest.mark.parametrize("classifier", ALL_CLASSIFIERS, ids=lambda c: type(c).__name__)
class TestSharedBehaviour:
    def test_fit_predict_separable(self, classifier, classification_data):
        X, y = classification_data
        model = clone(classifier)
        model.fit(X, y)
        accuracy = model.score(X, y)
        assert accuracy >= 0.85

    def test_probabilities_sum_to_one(self, classifier, classification_data):
        X, y = classification_data
        model = clone(classifier)
        model.fit(X, y)
        probabilities = model.predict_proba(X[:10])
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-6)
        assert probabilities.min() >= 0.0
        assert probabilities.max() <= 1.0 + 1e-9

    def test_predictions_are_known_classes(self, classifier, classification_data):
        X, y = classification_data
        model = clone(classifier)
        model.fit(X, y)
        assert set(np.unique(model.predict(X))) <= set(np.unique(y))

    def test_single_class_training(self, classifier):
        X = np.random.default_rng(0).random((10, 3))
        y = np.ones(10, dtype=int)
        model = clone(classifier)
        model.fit(X, y)
        assert (model.predict(X) == 1).all()

    def test_unfitted_predict_raises(self, classifier, classification_data):
        X, _ = classification_data
        model = clone(classifier)
        with pytest.raises(RuntimeError):
            model.predict(X)

    def test_feature_count_mismatch_raises(self, classifier, classification_data):
        X, y = classification_data
        model = clone(classifier)
        model.fit(X, y)
        with pytest.raises(ValueError):
            model.predict(X[:, :2])

    def test_empty_fit_rejected(self, classifier):
        model = clone(classifier)
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, 3)), np.zeros(0))

    def test_nan_features_rejected(self, classifier):
        model = clone(classifier)
        X = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            model.fit(X, [0, 1])

    def test_clone_is_unfitted_copy(self, classifier):
        copy = clone(classifier)
        assert type(copy) is type(classifier)
        assert not copy.is_fitted

    def test_clone_keeps_params(self, classifier, classification_data):
        X, y = classification_data
        fitted = clone(classifier).fit(X, y)
        assert clone(fitted).get_params() == classifier.get_params()

    def test_set_params_rejects_unknown_name(self, classifier):
        model = clone(classifier)
        with pytest.raises(ValueError, match="no parameter"):
            model.set_params(not_a_parameter=1)

    def test_refit_is_bitwise_deterministic(self, classifier, classification_data):
        X, y = classification_data
        first = clone(classifier).fit(X, y).predict_proba(X)
        second = clone(classifier).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(first, second)

    def test_predict_is_argmax_of_proba(self, classifier, classification_data):
        X, y = classification_data
        model = clone(classifier).fit(X, y)
        probabilities = model.predict_proba(X)
        assert probabilities.shape == (len(X), len(model.classes_))
        np.testing.assert_array_equal(
            model.predict(X), model.classes_[np.argmax(probabilities, axis=1)]
        )

    def test_string_labels(self, classifier, classification_data):
        X, y = classification_data
        names = np.where(y == 1, "expert", "novice")
        model = clone(classifier).fit(X, names)
        assert list(model.classes_) == ["expert", "novice"]
        np.testing.assert_array_equal(
            model.predict(X) == "expert", clone(classifier).fit(X, y).predict(X) == 1
        )

    def test_label_count_mismatch_rejected(self, classifier, classification_data):
        X, y = classification_data
        with pytest.raises(ValueError, match="rows"):
            clone(classifier).fit(X, y[:-1])

    def test_one_dimensional_features_are_one_column(self, classifier, classification_data):
        X, y = classification_data
        model = clone(classifier).fit(X[:, 0], y)
        assert model.n_features_in_ == 1
        np.testing.assert_array_equal(model.predict(X[:, 0]), model.predict(X[:, :1]))


class TestMulticlass:
    @pytest.mark.parametrize(
        "classifier",
        [
            LogisticRegression(n_iterations=200),
            LinearSVC(n_iterations=200),
            DecisionTreeClassifier(max_depth=5, random_state=0),
            RandomForestClassifier(n_estimators=20, random_state=0),
            GaussianNB(),
        ],
        ids=lambda c: type(c).__name__,
    )
    def test_three_class_problem(self, classifier):
        rng = np.random.default_rng(1)
        centers = np.array([[0, 0], [4, 4], [-4, 4]])
        X = np.vstack([rng.normal(center, 0.6, size=(30, 2)) for center in centers])
        y = np.repeat([0, 1, 2], 30)
        model = clone(classifier)
        model.fit(X, y)
        assert model.score(X, y) > 0.9
        assert model.predict_proba(X).shape == (90, 3)


class TestTreeSpecifics:
    def test_pure_leaf_stops_growth(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 0])
        tree = DecisionTreeClassifier()
        tree.fit(X, y)
        assert tree.depth() == 0
        assert tree.n_leaves() == 1

    def test_max_depth_respected(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=2, random_state=0)
        tree.fit(X, y)
        assert tree.depth() <= 2

    def test_feature_importances_sum_to_one(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=4, random_state=0)
        tree.fit(X, y)
        assert tree.feature_importances_ is not None
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_min_samples_leaf(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(min_samples_leaf=20, random_state=0)
        tree.fit(X, y)
        assert tree.n_leaves() <= len(y) // 20 + 1


class TestForestSpecifics:
    def test_number_of_estimators(self, classification_data):
        X, y = classification_data
        forest = RandomForestClassifier(n_estimators=7, random_state=0)
        forest.fit(X, y)
        assert len(forest.estimators_) == 7

    def test_invalid_estimator_count(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_deterministic_given_seed(self, classification_data):
        X, y = classification_data
        a = RandomForestClassifier(n_estimators=10, random_state=7).fit(X, y).predict(X)
        b = RandomForestClassifier(n_estimators=10, random_state=7).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_feature_importances(self, classification_data):
        X, y = classification_data
        forest = RandomForestClassifier(n_estimators=10, random_state=0)
        forest.fit(X, y)
        assert forest.feature_importances_ is not None
        assert forest.feature_importances_.shape == (X.shape[1],)


class TestLinearSpecifics:
    def test_logistic_coefficients_shape(self, classification_data):
        X, y = classification_data
        model = LogisticRegression(n_iterations=100)
        model.fit(X, y)
        assert model.coef_.shape == (2, X.shape[1])

    def test_logistic_decision_function(self, classification_data):
        X, y = classification_data
        model = LogisticRegression(n_iterations=100)
        model.fit(X, y)
        assert model.decision_function(X).shape == (X.shape[0], 2)

    def test_svm_decision_function_sign_matches_prediction(self, classification_data):
        X, y = classification_data
        model = LinearSVC(n_iterations=200)
        model.fit(X, y)
        scores = model.decision_function(X)
        predictions = model.predict(X)
        assert (predictions == model.classes_[np.argmax(scores, axis=1)]).all()


class TestParamsAPI:
    def test_get_and_set_params(self):
        model = RandomForestClassifier(n_estimators=10)
        params = model.get_params()
        assert params["n_estimators"] == 10
        model.set_params(n_estimators=20)
        assert model.n_estimators == 20

    def test_set_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().set_params(nonsense=3)

"""The MExI matching-expert characterizer (Section III-B).

Expert identification is cast as a multi-label classification problem and
transformed into one binary problem per characteristic (binary relevance,
following Read et al.).  For each characteristic a bank of classical
classifiers is cross-validated on the training set and the best one is kept
-- mirroring the paper's "trained a set of state-of-the-art classifiers and
selected the top performing classifier".

Training optionally augments the matcher set with sub-matchers
(``MExI_50`` / ``MExI_70``); the neural feature sets are trained on the
augmented set as well, which is exactly why the augmentation helps them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.expert_model import EXPERT_CHARACTERISTICS
from repro.core.features.base import FeatureBlock
from repro.core.features.cache import FeatureBlockCache
from repro.core.features.pipeline import FeaturePipeline, FeatureSetName
from repro.core.submatchers import (
    MEXI_50,
    MEXI_70,
    MEXI_EMPTY,
    SubMatcherConfig,
    generate_submatchers,
)
from repro.matching.matcher import HumanMatcher
from repro.ml.base import BaseClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LinearSVC, LogisticRegression
from repro.ml.metrics import accuracy_score
from repro.ml.model_selection import KFold
from repro.ml.naive_bayes import GaussianNB
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeClassifier


class MExIVariant(enum.Enum):
    """The three training variants evaluated in Table II."""

    EMPTY = "MExI_empty"
    SUB_50 = "MExI_50"
    SUB_70 = "MExI_70"

    @property
    def submatcher_config(self) -> SubMatcherConfig:
        if self is MExIVariant.EMPTY:
            return MEXI_EMPTY
        if self is MExIVariant.SUB_50:
            return MEXI_50
        return MEXI_70


def default_classifier_bank(random_state: int = 0) -> list[BaseClassifier]:
    """The candidate classifiers MExI selects from, per characteristic."""
    return [
        RandomForestClassifier(n_estimators=30, max_depth=6, random_state=random_state),
        LogisticRegression(n_iterations=200),
        LinearSVC(n_iterations=200),
        DecisionTreeClassifier(max_depth=5, random_state=random_state),
        GaussianNB(),
    ]


class _DefaultClassifierBank:
    """Picklable stand-in for the default ``classifier_bank`` callable.

    A plain lambda would make fitted characterizers unpicklable, breaking
    both ``process``-backend scoring fan-out and artifact bundles.
    """

    def __init__(self, random_state: int) -> None:
        self.random_state = random_state

    def __call__(self) -> list[BaseClassifier]:
        return default_classifier_bank(self.random_state)


class _ScaledFeatures:
    """Standardises a feature matrix once per distinct scaler object.

    The per-label models share one scaler, so prediction scales the matrix
    once instead of once per characteristic.
    """

    def __init__(self, features: np.ndarray) -> None:
        self._features = features
        self._by_scaler: dict[int, np.ndarray] = {}

    def get(self, scaler: StandardScaler) -> np.ndarray:
        key = id(scaler)
        if key not in self._by_scaler:
            self._by_scaler[key] = scaler.transform(self._features)
        return self._by_scaler[key]


def _cv_scores(
    candidate: BaseClassifier,
    X: np.ndarray,
    Y: np.ndarray,
    splits: list[tuple[np.ndarray, np.ndarray]],
) -> list[float]:
    """Mean test accuracy of ``candidate`` over the CV ``splits``, per label of ``Y``.

    A label whose training fold holds one class predicts that class on
    that fold.  Every other (fold, label) pair is fitted by one
    ``fit_many`` call, each on its fold's training rows, so every fold's
    models are alive until they are scored.
    """
    n_labels = Y.shape[1]
    pairs = [
        (fold, label)
        for fold, (train_index, _) in enumerate(splits)
        for label in range(n_labels)
        if np.unique(Y[train_index, label]).size > 1
    ]
    fitted = candidate.fit_many(
        X,
        [Y[splits[fold][0], label] for fold, label in pairs],
        rows=[splits[fold][0] for fold, _ in pairs],
    )
    models = dict(zip(pairs, fitted))
    fold_scores = []
    for fold, (train_index, test_index) in enumerate(splits):
        X_test, Y_test = X[test_index], Y[test_index]
        fold_scores.append(
            [
                accuracy_score(Y_test[:, label], models[fold, label].predict(X_test))
                if (fold, label) in models
                else float(np.mean(Y_test[:, label] == Y[train_index[0], label]))
                for label in range(n_labels)
            ]
        )
    # A 1-D mean per label, as fitting label by label takes: along axis 0,
    # numpy would not sum pairwise from 8 folds on.
    return [float(np.mean(label)) for label in zip(*fold_scores)]


@dataclass
class _FittedLabelModel:
    """The selected classifier (and scaler) for a single characteristic.

    A degenerate (constant) training label has no classifier: it predicts
    ``constant_label``.
    """

    classifier: Optional[BaseClassifier]
    scaler: StandardScaler
    classifier_name: str
    cv_score: float
    constant_label: Optional[int] = None


class MExICharacterizer:
    """The full MExI model: feature pipeline + per-label classifier selection."""

    def __init__(
        self,
        variant: MExIVariant = MExIVariant.SUB_50,
        feature_sets: Optional[Sequence[FeatureSetName]] = None,
        pipeline: Optional[FeaturePipeline] = None,
        classifier_bank: Optional[Callable[[], list[BaseClassifier]]] = None,
        neural_config: Optional[dict[str, dict]] = None,
        selection_folds: int = 3,
        random_state: int = 0,
        cache: Optional[FeatureBlockCache] = None,
    ) -> None:
        self.variant = variant
        self.random_state = random_state
        self.selection_folds = selection_folds
        if pipeline is not None:
            # A supplied pipeline is caller-owned: never mutate its cache.
            if cache is not None and pipeline.cache is not cache:
                raise ValueError(
                    "pass the cache to the pipeline itself; supplying both a "
                    "pipeline and a different cache is ambiguous"
                )
            self.pipeline = pipeline
        else:
            self.pipeline = FeaturePipeline(
                include=feature_sets,
                neural_config=neural_config,
                random_state=random_state,
                cache=cache,
            )
        self._classifier_bank = classifier_bank or _DefaultClassifierBank(self.random_state)
        self._label_models: list[_FittedLabelModel] = []

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    @property
    def is_fitted(self) -> bool:
        return bool(self._label_models)

    def _augment(
        self, matchers: Sequence[HumanMatcher], label_matrix: np.ndarray
    ) -> tuple[list[HumanMatcher], np.ndarray]:
        """The variant's training augmentation (shared by fit and prewarm)."""
        return generate_submatchers(
            list(matchers), label_matrix, self.variant.submatcher_config
        )

    def prewarm(
        self,
        matchers: Sequence[HumanMatcher],
        labels: np.ndarray,
        predict_matchers: Sequence[HumanMatcher] = (),
    ) -> "MExICharacterizer":
        """Populate the attached cache with everything ``fit``/``predict`` read.

        Runs the exact extraction path of :meth:`fit` (augmentation,
        pipeline fit with its consensus and neural fits, training-block
        extraction) plus the block extraction :meth:`predict` would do for
        ``predict_matchers`` — but trains no classifiers.  Studies fan many
        configurations out over a shared cache after one pre-warm, so
        workers only read it (and process workers receive a complete copy).
        """
        label_matrix = np.asarray(labels, dtype=int)
        augmented, augmented_labels = self._augment(matchers, label_matrix)
        self.pipeline.fit(augmented, augmented_labels)
        self.pipeline.transform_blocks(augmented)
        if len(predict_matchers):
            self.pipeline.transform_blocks(list(predict_matchers))
        return self

    def _select_classifiers(
        self, X: np.ndarray, Y: np.ndarray
    ) -> list[tuple[BaseClassifier, str, float]]:
        """Cross-validate the bank for every label column; refit each winner.

        Every label shares ``X`` and the folds, so each candidate fits every
        (fold, label) pair with one ``fit_many`` call over the folds'
        training rows, and the winners' refits share one call per
        candidate.  Each fit is a fresh clone, exactly as fitting label by
        label and fold by fold.
        """
        n_samples, n_labels = Y.shape
        n_folds = min(self.selection_folds, n_samples)
        bank = self._classifier_bank()
        if n_folds >= 2:
            folds = KFold(n_splits=n_folds, shuffle=True, random_state=self.random_state)
            splits = list(folds.split(X))
        else:
            # Too few samples to split: score on the training set itself.
            everything = np.arange(n_samples)
            splits = [(everything, everything)]
        scores = np.array([_cv_scores(candidate, X, Y, splits) for candidate in bank])
        # The first candidate with the top score wins, as in a strict ``>`` scan.
        winners = np.argmax(scores, axis=0)
        selected: list[Optional[tuple[BaseClassifier, str, float]]] = [None] * n_labels
        for candidate_index in np.unique(winners):
            candidate = bank[candidate_index]
            labels = np.flatnonzero(winners == candidate_index)
            finals = candidate.fit_many(X, [Y[:, label] for label in labels])
            for label, final in zip(labels, finals):
                selected[label] = (
                    final,
                    type(candidate).__name__,
                    float(scores[candidate_index, label]),
                )
        return selected

    def fit(
        self,
        matchers: Sequence[HumanMatcher],
        labels: np.ndarray,
        precomputed: Optional[dict[str, FeatureBlock]] = None,
    ) -> "MExICharacterizer":
        """Train MExI on a labelled training population.

        Args
        ----
        matchers:
            The training population (augmented with sub-matchers per the
            configured :class:`MExIVariant` before feature extraction).
        labels:
            The ``(n_matchers, 4)`` 0/1 matrix of expert labels produced
            by :class:`repro.core.expert_model.ExpertThresholds`.
        precomputed:
            Optional ready-made feature blocks for the *augmented*
            training population (keyed by set name), bypassing extraction
            for those sets.

        Returns
        -------
        MExICharacterizer
            ``self``, fitted (enables chaining).

        Raises
        ------
        ValueError
            If ``labels`` is not an ``(n_matchers, 4)`` matrix aligned
            with ``matchers``, or the training set is empty.
        """
        label_matrix = np.asarray(labels, dtype=int)
        if label_matrix.ndim != 2 or label_matrix.shape[1] != len(EXPERT_CHARACTERISTICS):
            raise ValueError("labels must be an (n_matchers, 4) matrix")
        if label_matrix.shape[0] != len(matchers):
            raise ValueError("labels must have one row per matcher")
        if not matchers:
            raise ValueError("cannot fit MExI on an empty training set")

        augmented, augmented_labels = self._augment(matchers, label_matrix)

        self.pipeline.fit(augmented, augmented_labels)
        features = self.pipeline.transform(augmented, precomputed=precomputed)

        # One scaler serves every characteristic: the features are identical
        # across labels, so fitting it once is exactly equivalent.
        scaler = StandardScaler()
        X = scaler.fit_transform(features)

        Y = augmented_labels.astype(int)
        live = [label for label in range(Y.shape[1]) if np.unique(Y[:, label]).size > 1]
        selected = dict(zip(live, self._select_classifiers(X, Y[:, live]))) if live else {}
        self._label_models = []
        for label_index in range(Y.shape[1]):
            if label_index not in selected:
                # Degenerate training label: remember the constant.
                self._label_models.append(
                    _FittedLabelModel(
                        classifier=None,
                        scaler=scaler,
                        classifier_name="constant",
                        cv_score=1.0,
                        constant_label=int(Y[0, label_index]),
                    )
                )
                continue
            classifier, name, score = selected[label_index]
            self._label_models.append(
                _FittedLabelModel(
                    classifier=classifier,
                    scaler=scaler,
                    classifier_name=name,
                    cv_score=score,
                )
            )
        return self

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def predict(
        self,
        matchers: Sequence[HumanMatcher],
        precomputed: Optional[dict[str, FeatureBlock]] = None,
    ) -> np.ndarray:
        """Predicted 0/1 label matrix, one row per matcher.

        Args
        ----
        matchers:
            The population to characterize.
        precomputed:
            Optional ready-made feature blocks for ``matchers`` (keyed by
            set name), bypassing extraction — the serving layer passes the
            blocks its workers extracted.

        Returns
        -------
        numpy.ndarray
            ``(n_matchers, 4)`` 0/1 matrix, columns in
            :data:`~repro.core.expert_model.EXPERT_CHARACTERISTICS` order.

        Raises
        ------
        RuntimeError
            If the characterizer has not been fitted.
        """
        return self.characterize(matchers, precomputed=precomputed)[0]

    def predict_proba(
        self,
        matchers: Sequence[HumanMatcher],
        precomputed: Optional[dict[str, FeatureBlock]] = None,
    ) -> np.ndarray:
        """Per-label positive-class probabilities (expertise scores).

        Args and errors mirror :meth:`predict`; the returned
        ``(n_matchers, 4)`` matrix holds the positive-class probability of
        each characteristic (the constant label's value for degenerate
        training labels).
        """
        return self.characterize(matchers, precomputed=precomputed)[1]

    def characterize(
        self,
        matchers: Sequence[HumanMatcher],
        precomputed: Optional[dict[str, FeatureBlock]] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Labels and expertise scores in a single classification pass.

        Equivalent to calling :meth:`predict` and :meth:`predict_proba`
        (bitwise — both derive from the same per-classifier probability
        matrix) but transforms the features and evaluates each selected
        classifier only once, which halves serving-path latency
        (:class:`repro.serve.CharacterizationService` uses this).

        Returns
        -------
        tuple[numpy.ndarray, numpy.ndarray]
            The ``(n_matchers, 4)`` 0/1 label matrix and the
            ``(n_matchers, 4)`` positive-class probability matrix.

        Raises
        ------
        RuntimeError
            If the characterizer has not been fitted.
        """
        if not self.is_fitted:
            raise RuntimeError("MExICharacterizer must be fitted before predicting")
        features = self.pipeline.transform(matchers, precomputed=precomputed)
        scaled = _ScaledFeatures(features)
        predictions = np.zeros((len(matchers), len(EXPERT_CHARACTERISTICS)), dtype=int)
        probabilities = np.zeros((len(matchers), len(EXPERT_CHARACTERISTICS)))
        for label_index, model in enumerate(self._label_models):
            if model.constant_label is not None:
                predictions[:, label_index] = model.constant_label
                probabilities[:, label_index] = float(model.constant_label)
                continue
            X = scaled.get(model.scaler)
            proba = model.classifier.predict_proba(X)
            classes = model.classifier.classes_
            assert classes is not None
            # Exactly BaseClassifier.predict's argmax, applied to the one
            # probability matrix both outputs share.
            predictions[:, label_index] = classes[np.argmax(proba, axis=1)].astype(int)
            positive = np.where(classes == 1)[0]
            if positive.size:
                probabilities[:, label_index] = proba[:, positive[0]]
        return predictions, probabilities

    def selected_classifiers(self) -> dict[str, str]:
        """Which classifier won the selection for each characteristic.

        Returns
        -------
        dict[str, str]
            Characteristic name -> class name of the selected classifier
            (``"constant"`` for degenerate training labels).

        Raises
        ------
        RuntimeError
            If the characterizer has not been fitted.
        """
        if not self.is_fitted:
            raise RuntimeError("MExICharacterizer must be fitted first")
        return {
            characteristic: model.classifier_name
            for characteristic, model in zip(EXPERT_CHARACTERISTICS, self._label_models)
        }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path) -> None:
        """Persist the fitted model as a versioned artifact bundle at ``path``.

        Delegates to :func:`repro.serve.save_model`; the resulting bundle
        (``manifest.json`` + ``arrays/``) round-trips through
        :meth:`load` / :func:`repro.serve.load_model` to bitwise-identical
        predictions.

        Raises
        ------
        repro.serve.ArtifactError
            If the characterizer has not been fitted.
        """
        from repro.serve.artifacts import save_model

        save_model(self, path)

    @classmethod
    def load(cls, path) -> "MExICharacterizer":
        """Load a characterizer saved with :meth:`save`.

        Raises
        ------
        repro.serve.ArtifactError
            If the bundle is missing, corrupt, of an unsupported format
            version, or does not contain a :class:`MExICharacterizer`.
        """
        from repro.serve.artifacts import ArtifactError, load_model

        model = load_model(path)
        if not isinstance(model, cls):
            raise ArtifactError(
                f"bundle at {path} contains a {type(model).__name__}, not a {cls.__name__}"
            )
        return model

    def __repr__(self) -> str:
        return (
            f"MExICharacterizer(variant={self.variant.value}, "
            f"feature_sets={self.pipeline.include}, fitted={self.is_fitted})"
        )

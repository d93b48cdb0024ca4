"""Versioned on-disk model artifacts (format version 2).

A fitted estimator is persisted as a **bundle** through the shared
:mod:`repro.io.bundle` contract: a directory holding

* ``manifest.json`` — a self-describing JSON manifest with the format
  name/version, the producing ``repro`` version, the model type, a
  **content fingerprint**, the ``arrays`` entry (key → file index), and
  the ``spec`` tree describing the object graph (scalars inline, arrays
  as ``{"__array__": key}`` references);
* ``arrays/`` — one raw ``.npy`` file per array, loaded with
  ``np.load(mmap_mode="r")`` so load cost is O(pages-touched) and
  concurrent loaders share physical pages.  Models are rebuilt
  **zero-copy** on top of those read-only views.  Format-version-1
  bundles (a single compressed ``arrays.npz``) remain readable.

No pickle is involved: bundles contain only JSON and ``.npy``/``.npz``
data, so loading never executes bundle-supplied code, and bundles stay
portable across Python versions and diffable.  Loading verifies the
format version and the content fingerprint over the spec and the arrays
(a keyless blake2b — an *integrity* check catching corruption and
truncation, not an authenticity signature), and any spec/array
inconsistency the decoders trip over is reported as a clear
:class:`ArtifactError` instead of mis-predicting silently.

Every fitted estimator in the code base round-trips to **bitwise-identical
predictions**: the classical classifiers (:mod:`repro.ml`), the neural
:class:`~repro.nn.network.Sequential` (layer weights *and* optimizer
state, so training can resume from a checkpoint), the feature extractors,
the :class:`~repro.core.features.pipeline.FeaturePipeline` and the full
:class:`~repro.core.characterizer.MExICharacterizer`.

Two intentional non-goals: custom *callables* are not serialized —
custom classifier banks fall back to the default on load (affects
refitting only), and a custom LRSM predictor registry is **rejected** at
load when its names differ from the default's (one whose functions
differ but shadow the default names is undetectable and remains the
caller's responsibility) — and the
:class:`~repro.core.features.cache.FeatureBlockCache` is never persisted
(it is a performance artifact, rebuilt warm by the serving layer).
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import repro
from repro.core.characterizer import (
    MExICharacterizer,
    MExIVariant,
    _DefaultClassifierBank,
    _FittedLabelModel,
)
from repro.core.features.behavioral import BehavioralFeatures
from repro.core.features.consensus import ConsensusModel
from repro.core.features.mouse import MouseFeatures
from repro.core.features.pipeline import FeaturePipeline
from repro.core.features.predictors import LRSMFeatures
from repro.core.features.sequential import SequentialFeatures
from repro.core.features.spatial import SpatialFeatures
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LinearSVC, LogisticRegression
from repro.ml.naive_bayes import GaussianNB
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeClassifier
from repro.nn.conv import Conv2D, GlobalAveragePooling2D, MaxPool2D
from repro.nn.layers import Dense, Dropout, Flatten, ReLU, Sigmoid, Tanh
from repro.nn.losses import BinaryCrossEntropy, MeanSquaredError
from repro.nn.network import Sequential
from repro.nn.optimizers import SGD, Adam
from repro.nn.recurrent import LSTM
from repro.io.bundle import (
    atomic_bundle_dir,
    check_arrays,
    decoding,
    read_bundle,
    read_bundle_manifest,
    write_bundle,
)

#: Bundle format identifier written into every manifest.
ARTIFACT_FORMAT = "repro-model-bundle"

#: Current artifact format version (2 = ``arrays/`` directory; 1 = the
#: historical compressed ``arrays.npz``).  Writers stamp the current
#: version; loaders accept every supported one.
ARTIFACT_FORMAT_VERSION = 2

#: Format versions load_model / read_manifest accept.
SUPPORTED_ARTIFACT_VERSIONS = (1, 2)


class ArtifactError(RuntimeError):
    """Raised when a model cannot be saved or a bundle cannot be loaded."""


# --------------------------------------------------------------------- #
# Encoder / decoder plumbing
# --------------------------------------------------------------------- #


class _Encoder:
    """Collects arrays while codecs build the JSON spec tree."""

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}
        self._counter = 0

    def put(self, hint: str, value: Any) -> dict:
        """Store one array and return its spec reference."""
        key = f"{self._counter:06d}/{hint}"
        self._counter += 1
        self.arrays[key] = np.asarray(value)
        return {"__array__": key}

    def put_optional(self, hint: str, value: Any) -> Optional[dict]:
        return None if value is None else self.put(hint, value)

    def encode(self, obj: Any) -> dict:
        """Encode one object through its registered codec."""
        codec = _CODECS_BY_TYPE.get(type(obj))
        if codec is None:
            raise ArtifactError(
                f"no artifact codec is registered for {type(obj).__name__}; "
                f"serializable types: {sorted(c.__name__ for c in _CODECS_BY_TYPE)}"
            )
        spec = codec.encode(obj, self)
        spec["__type__"] = codec.tag
        return spec

    def encode_optional(self, obj: Any) -> Optional[dict]:
        return None if obj is None else self.encode(obj)


class _Decoder:
    """Resolves array references while codecs rebuild the object graph.

    References resolve to the stored arrays themselves, which keeps
    mmap-backed bundles **zero-copy**: the views are read-only, and every
    decoder either treats its arrays as immutable or copies the pieces it
    mutates, so decoded models behave identically.  (Legacy ``arrays.npz``
    bundles load into owned RAM arrays, one per reference.)
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        self.arrays = arrays

    def get(self, reference: dict) -> np.ndarray:
        """The array behind a spec reference."""
        if not isinstance(reference, dict) or "__array__" not in reference:
            raise ArtifactError(f"malformed array reference in spec: {reference!r}")
        key = reference["__array__"]
        if key not in self.arrays:
            raise ArtifactError(f"bundle is missing array {key!r} (truncated bundle?)")
        return self.arrays[key]

    def get_optional(self, reference: Optional[dict]) -> Optional[np.ndarray]:
        return None if reference is None else self.get(reference)

    def decode(self, spec: dict) -> Any:
        tag = spec.get("__type__")
        codec = _CODECS_BY_TAG.get(tag)
        if codec is None:
            raise ArtifactError(f"bundle spec names unknown type tag {tag!r}")
        return codec.decode(spec, self)

    def decode_optional(self, spec: Optional[dict]) -> Any:
        return None if spec is None else self.decode(spec)


_CODECS_BY_TYPE: dict[type, Any] = {}
_CODECS_BY_TAG: dict[str, Any] = {}


def _codec(tag: str, cls: type) -> Callable[[type], type]:
    """Register a codec class for ``cls`` under the stable spec tag ``tag``."""

    def register(codec_cls: type) -> type:
        instance = codec_cls()
        instance.tag = tag
        _CODECS_BY_TYPE[cls] = instance
        _CODECS_BY_TAG[tag] = instance
        return codec_cls

    return register


def _require_fitted(estimator: Any, fitted: bool) -> None:
    if not fitted:
        raise ArtifactError(
            f"cannot save an unfitted {type(estimator).__name__}; fit it first"
        )


def _classifier_state(clf: Any, encoder: _Encoder) -> dict:
    """The fitted bookkeeping shared by every BaseClassifier."""
    _require_fitted(clf, clf.classes_ is not None)
    return {
        "classes": encoder.put("classes", clf.classes_),
        "n_features_in": int(clf.n_features_in_),
    }


def _restore_classifier_state(clf: Any, spec: dict, decoder: _Decoder) -> None:
    clf.classes_ = decoder.get(spec["classes"])
    clf.n_features_in_ = int(spec["n_features_in"])


def _check_fitted_arrays(
    spec: dict, decoder: _Decoder, schema: dict, tag: str, positive: tuple = ()
) -> dict:
    """The spec's fitted arrays, checked against ``schema``, by name.

    Every array must be finite, and those named in ``positive`` (the ones
    predict or transform divides by or takes the log of) strictly
    positive.  An array that disagrees with the restored classes or
    feature count, or with those bounds, fails here, at load, instead of
    as a raw error (or a NaN) at predict time.
    """
    arrays = {name: decoder.get(spec[name]) for name in schema}
    check_arrays(arrays, schema, where=f"{tag} spec", error=ArtifactError)
    for name, array in arrays.items():
        if not np.all(np.isfinite(array)) or (name in positive and not np.all(array > 0)):
            bound = "finite and positive" if name in positive else "finite"
            raise ArtifactError(f"{tag} spec stores {name!r} values that are not all {bound}")
    return arrays


# --------------------------------------------------------------------- #
# Classical estimators (repro.ml)
# --------------------------------------------------------------------- #


def _construct(cls: type, params: dict):
    """``cls(**params)``, minus the keyword arguments ``cls`` no longer takes.

    Bundles from older versions may store retired constructor options
    (the trees' former scalar/vectorized split-search selector, the
    forests' per-tree fan-out ``runtime``).  Those never changed the
    fitted model, so dropping them keeps such bundles loadable with
    bitwise-identical predictions.
    """
    accepted = inspect.signature(cls).parameters
    return cls(**{name: params[name] for name in params if name in accepted})


@_codec("ml.decision_tree", DecisionTreeClassifier)
class _DecisionTreeCodec:
    def encode(self, tree: DecisionTreeClassifier, encoder: _Encoder) -> dict:
        _require_fitted(tree, tree.is_fitted)
        return {
            "params": {
                "max_depth": tree.max_depth,
                "min_samples_split": tree.min_samples_split,
                "min_samples_leaf": tree.min_samples_leaf,
                "max_features": tree.max_features,
                "random_state": tree.random_state,
            },
            **_classifier_state(tree, encoder),
            "importances": encoder.put_optional("importances", tree.feature_importances_),
            "nodes": {
                name: encoder.put(f"tree/{name}", array)
                for name, array in tree.tree_arrays().items()
            },
        }

    def decode(self, spec: dict, decoder: _Decoder) -> DecisionTreeClassifier:
        tree = _construct(DecisionTreeClassifier, spec["params"])
        _restore_classifier_state(tree, spec, decoder)
        tree.feature_importances_ = decoder.get_optional(spec["importances"])
        tree.set_tree_arrays({name: decoder.get(ref) for name, ref in spec["nodes"].items()})
        return tree


@_codec("ml.random_forest", RandomForestClassifier)
class _RandomForestCodec:
    def encode(self, forest: RandomForestClassifier, encoder: _Encoder) -> dict:
        _require_fitted(forest, forest.is_fitted)
        return {
            "params": {
                "n_estimators": forest.n_estimators,
                "max_depth": forest.max_depth,
                "min_samples_split": forest.min_samples_split,
                "min_samples_leaf": forest.min_samples_leaf,
                "max_features": forest.max_features,
                "bootstrap": forest.bootstrap,
                "random_state": forest.random_state,
            },
            **_classifier_state(forest, encoder),
            "importances": encoder.put_optional("importances", forest.feature_importances_),
            "estimators": [encoder.encode(tree) for tree in forest.estimators_],
        }

    def decode(self, spec: dict, decoder: _Decoder) -> RandomForestClassifier:
        forest = _construct(RandomForestClassifier, spec["params"])
        _restore_classifier_state(forest, spec, decoder)
        forest.feature_importances_ = decoder.get_optional(spec["importances"])
        forest.estimators_ = [decoder.decode(tree) for tree in spec["estimators"]]
        forest._index_trees()
        return forest


class _LinearCodecBase:
    """Shared encode/decode for the two linear one-vs-rest classifiers."""

    cls: type
    param_names: tuple[str, ...]

    def encode(self, model: Any, encoder: _Encoder) -> dict:
        _require_fitted(model, model.is_fitted)
        return {
            "params": {name: getattr(model, name) for name in self.param_names},
            **_classifier_state(model, encoder),
            "feature_mean": encoder.put("feature_mean", model._feature_mean),
            "feature_scale": encoder.put("feature_scale", model._feature_scale),
            "weights": encoder.put("weights", model._weights),
            "biases": encoder.put("biases", model._biases),
        }

    def decode(self, spec: dict, decoder: _Decoder) -> Any:
        model = self.cls(**spec["params"])
        _restore_classifier_state(model, spec, decoder)
        n_classes, n_features = len(model.classes_), model.n_features_in_
        # A single-class fit has no one-vs-rest problems, so no weight rows.
        rows = n_classes if n_classes > 1 else 0
        schema = {
            "feature_mean": ("f", (n_features,)),
            "feature_scale": ("f", (n_features,)),
            "weights": ("f", (rows, n_features)),
            "biases": ("f", (rows,)),
        }
        arrays = _check_fitted_arrays(spec, decoder, schema, self.tag, positive=("feature_scale",))
        for name, array in arrays.items():
            setattr(model, f"_{name}", array)
        return model


@_codec("ml.logistic_regression", LogisticRegression)
class _LogisticRegressionCodec(_LinearCodecBase):
    cls = LogisticRegression
    param_names = ("learning_rate", "n_iterations", "regularization", "fit_intercept")


@_codec("ml.linear_svc", LinearSVC)
class _LinearSVCCodec(_LinearCodecBase):
    cls = LinearSVC
    param_names = ("learning_rate", "n_iterations", "regularization")


@_codec("ml.gaussian_nb", GaussianNB)
class _GaussianNBCodec:
    def encode(self, model: GaussianNB, encoder: _Encoder) -> dict:
        _require_fitted(model, model.is_fitted)
        return {
            "params": {"var_smoothing": model.var_smoothing},
            **_classifier_state(model, encoder),
            "theta": encoder.put("theta", model._theta),
            "sigma": encoder.put("sigma", model._sigma),
            "priors": encoder.put("priors", model._priors),
        }

    def decode(self, spec: dict, decoder: _Decoder) -> GaussianNB:
        model = GaussianNB(**spec["params"])
        _restore_classifier_state(model, spec, decoder)
        n_classes, n_features = len(model.classes_), model.n_features_in_
        schema = {
            "theta": ("f", (n_classes, n_features)),
            "sigma": ("f", (n_classes, n_features)),
            "priors": ("f", (n_classes,)),
        }
        arrays = _check_fitted_arrays(spec, decoder, schema, self.tag, positive=("sigma", "priors"))
        for name, array in arrays.items():
            setattr(model, f"_{name}", array)
        return model


@_codec("ml.standard_scaler", StandardScaler)
class _StandardScalerCodec:
    def encode(self, scaler: StandardScaler, encoder: _Encoder) -> dict:
        _require_fitted(scaler, scaler.mean_ is not None)
        return {
            "params": {"with_mean": scaler.with_mean, "with_std": scaler.with_std},
            "mean": encoder.put("mean", scaler.mean_),
            "scale": encoder.put("scale", scaler.scale_),
        }

    def decode(self, spec: dict, decoder: _Decoder) -> StandardScaler:
        scaler = StandardScaler(**spec["params"])
        # The scaler records no feature count, so ``mean`` fixes the width
        # and ``scale`` (the transform's divisor) must match it.
        mean = decoder.get(spec["mean"])
        width = mean.shape[0] if mean.ndim == 1 else None
        schema = {"mean": ("f", (width,)), "scale": ("f", (width,))}
        arrays = _check_fitted_arrays(spec, decoder, schema, self.tag, positive=("scale",))
        scaler.mean_, scaler.scale_ = arrays["mean"], arrays["scale"]
        return scaler


# --------------------------------------------------------------------- #
# Neural network (repro.nn)
# --------------------------------------------------------------------- #

#: Layer classes the Sequential codec can rebuild, by class name.
_LAYER_CLASSES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        Dense,
        ReLU,
        Sigmoid,
        Tanh,
        Dropout,
        Flatten,
        LSTM,
        Conv2D,
        MaxPool2D,
        GlobalAveragePooling2D,
    )
}

_LOSS_CLASSES: dict[str, type] = {
    cls.__name__: cls for cls in (BinaryCrossEntropy, MeanSquaredError)
}


def _encode_state_arrays(state: dict, encoder: _Encoder, hint: str) -> dict:
    """Encode an optimizer-state tree ({str: array} leaves) into references."""
    encoded: dict = {}
    for key, value in state.items():
        if isinstance(value, dict):
            encoded[key] = {
                slot: encoder.put(f"{hint}/{key}/{slot}", array)
                for slot, array in value.items()
            }
        else:
            encoded[key] = value
    return encoded


def _decode_state_arrays(spec: dict, decoder: _Decoder) -> dict:
    decoded: dict = {}
    for key, value in spec.items():
        if isinstance(value, dict):
            decoded[key] = {slot: decoder.get(ref) for slot, ref in value.items()}
        else:
            decoded[key] = value
    return decoded


@_codec("nn.adam", Adam)
class _AdamCodec:
    def encode(self, optimizer: Adam, encoder: _Encoder) -> dict:
        return {
            "params": {
                "learning_rate": optimizer.learning_rate,
                "beta1": optimizer.beta1,
                "beta2": optimizer.beta2,
                "epsilon": optimizer.epsilon,
            },
            "state": _encode_state_arrays(optimizer.get_state(), encoder, "adam"),
        }

    def decode(self, spec: dict, decoder: _Decoder) -> Adam:
        optimizer = Adam(**spec["params"])
        optimizer.set_state(_decode_state_arrays(spec["state"], decoder))
        return optimizer


@_codec("nn.sgd", SGD)
class _SGDCodec:
    def encode(self, optimizer: SGD, encoder: _Encoder) -> dict:
        return {
            "params": {
                "learning_rate": optimizer.learning_rate,
                "momentum": optimizer.momentum,
            },
            "state": _encode_state_arrays(optimizer.get_state(), encoder, "sgd"),
        }

    def decode(self, spec: dict, decoder: _Decoder) -> SGD:
        optimizer = SGD(**spec["params"])
        optimizer.set_state(_decode_state_arrays(spec["state"], decoder))
        return optimizer


@_codec("nn.sequential", Sequential)
class _SequentialCodec:
    def encode(self, network: Sequential, encoder: _Encoder) -> dict:
        layers = []
        for index, layer in enumerate(network.layers):
            name = type(layer).__name__
            if name not in _LAYER_CLASSES:
                raise ArtifactError(f"no artifact codec for layer type {name}")
            layers.append(
                {
                    "layer_type": name,
                    "config": layer.config(),
                    "params": {
                        param: encoder.put(f"layer{index}/{param}", value)
                        for param, value in layer.params.items()
                    },
                }
            )
        loss = network.loss
        loss_spec: dict[str, Any] = {"loss_type": type(loss).__name__}
        if isinstance(loss, BinaryCrossEntropy):
            loss_spec["epsilon"] = loss.epsilon
        return {
            "layers": layers,
            "loss": loss_spec,
            "optimizer": encoder.encode(network.optimizer),
            "history": [float(value) for value in network.history_],
        }

    def decode(self, spec: dict, decoder: _Decoder) -> Sequential:
        layers = []
        for entry in spec["layers"]:
            layer_cls = _LAYER_CLASSES.get(entry["layer_type"])
            if layer_cls is None:
                raise ArtifactError(f"bundle names unknown layer type {entry['layer_type']!r}")
            layer = layer_cls(**entry["config"])
            for param, reference in entry["params"].items():
                if param not in layer.params:
                    raise ArtifactError(
                        f"layer {entry['layer_type']} has no parameter {param!r}"
                    )
                layer.params[param][...] = decoder.get(reference)
            layers.append(layer)
        network = Sequential(layers)
        loss_spec = spec["loss"]
        loss_cls = _LOSS_CLASSES.get(loss_spec["loss_type"])
        if loss_cls is None:
            raise ArtifactError(f"bundle names unknown loss type {loss_spec['loss_type']!r}")
        loss = (
            loss_cls(epsilon=loss_spec["epsilon"])
            if loss_cls is BinaryCrossEntropy
            else loss_cls()
        )
        network.compile(loss=loss, optimizer=decoder.decode(spec["optimizer"]))
        network.history_ = [float(value) for value in spec["history"]]
        return network


# --------------------------------------------------------------------- #
# Feature extractors and pipeline (repro.core)
# --------------------------------------------------------------------- #


@_codec("core.consensus", ConsensusModel)
class _ConsensusCodec:
    def encode(self, model: ConsensusModel, encoder: _Encoder) -> dict:
        pairs = sorted(model._counts)
        pair_array = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
        count_array = np.array([model._counts[pair] for pair in pairs], dtype=np.int64)
        return {
            "n_matchers": model.n_matchers,
            "pairs": encoder.put("consensus/pairs", pair_array),
            "counts": encoder.put("consensus/counts", count_array),
        }

    def decode(self, spec: dict, decoder: _Decoder) -> ConsensusModel:
        model = ConsensusModel()
        model._n_matchers = int(spec["n_matchers"])
        pairs = decoder.get(spec["pairs"])
        counts = decoder.get(spec["counts"])
        model._counts = {
            (int(row), int(col)): int(count)
            for (row, col), count in zip(pairs, counts)
        }
        return model


@_codec("core.lrsm_features", LRSMFeatures)
class _LRSMFeaturesCodec:
    def encode(self, extractor: LRSMFeatures, encoder: _Encoder) -> dict:
        return {"registry_names": list(extractor.registry.names())}

    def decode(self, spec: dict, decoder: _Decoder) -> LRSMFeatures:
        extractor = LRSMFeatures()
        if list(extractor.registry.names()) != list(spec["registry_names"]):
            raise ArtifactError(
                "bundle was saved with a custom LRSM predictor registry, which "
                "is not serializable; re-create the extractor in code instead"
            )
        return extractor


@_codec("core.behavioral_features", BehavioralFeatures)
class _BehavioralFeaturesCodec:
    def encode(self, extractor: BehavioralFeatures, encoder: _Encoder) -> dict:
        return {"consensus": encoder.encode_optional(extractor.consensus)}

    def decode(self, spec: dict, decoder: _Decoder) -> BehavioralFeatures:
        return BehavioralFeatures(consensus=decoder.decode_optional(spec["consensus"]))


@_codec("core.mouse_features", MouseFeatures)
class _MouseFeaturesCodec:
    def encode(self, extractor: MouseFeatures, encoder: _Encoder) -> dict:
        return {}

    def decode(self, spec: dict, decoder: _Decoder) -> MouseFeatures:
        return MouseFeatures()


@_codec("core.sequential_features", SequentialFeatures)
class _SequentialFeaturesCodec:
    def encode(self, extractor: SequentialFeatures, encoder: _Encoder) -> dict:
        return {
            "params": {
                "hidden_dim": extractor.hidden_dim,
                "dense_dim": extractor.dense_dim,
                "max_sequence_length": extractor.max_sequence_length,
                "epochs": extractor.epochs,
                "learning_rate": extractor.learning_rate,
                "dropout": extractor.dropout,
                "random_state": extractor.random_state,
            },
            "consensus": encoder.encode_optional(extractor.consensus),
            "network": encoder.encode_optional(extractor._network),
            "fit_fingerprint": extractor._fit_fingerprint,
        }

    def decode(self, spec: dict, decoder: _Decoder) -> SequentialFeatures:
        extractor = SequentialFeatures(**spec["params"])
        extractor.consensus = decoder.decode_optional(spec["consensus"])
        extractor._network = decoder.decode_optional(spec["network"])
        extractor._fit_fingerprint = spec["fit_fingerprint"]
        return extractor


@_codec("core.spatial_features", SpatialFeatures)
class _SpatialFeaturesCodec:
    def encode(self, extractor: SpatialFeatures, encoder: _Encoder) -> dict:
        return {
            "params": {
                "input_shape": list(extractor.input_shape),
                "n_filters": extractor.n_filters,
                "epochs": extractor.epochs,
                "pretrain": extractor.pretrain,
                "pretrain_samples": extractor.pretrain_samples,
                "random_state": extractor.random_state,
            },
            "networks": {
                channel: encoder.encode(network)
                for channel, network in extractor._networks.items()
            },
            "fit_fingerprint": extractor._fit_fingerprint,
        }

    def decode(self, spec: dict, decoder: _Decoder) -> SpatialFeatures:
        params = dict(spec["params"])
        params["input_shape"] = tuple(params["input_shape"])
        extractor = SpatialFeatures(**params)
        extractor._networks = {
            channel: decoder.decode(network)
            for channel, network in spec["networks"].items()
        }
        extractor._fit_fingerprint = spec["fit_fingerprint"]
        return extractor


def _jsonable_neural_config(neural_config: dict[str, dict]) -> dict[str, dict]:
    """Neural-extractor kwargs with tuples flattened for JSON."""
    encoded: dict[str, dict] = {}
    for name, kwargs in neural_config.items():
        encoded[name] = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in kwargs.items()
        }
    return encoded


def _decoded_neural_config(neural_config: dict[str, dict]) -> dict[str, dict]:
    """Invert :func:`_jsonable_neural_config` (``input_shape`` back to a tuple)."""
    decoded: dict[str, dict] = {}
    for name, kwargs in neural_config.items():
        decoded[name] = {
            key: tuple(value) if key == "input_shape" and isinstance(value, list) else value
            for key, value in kwargs.items()
        }
    return decoded


@_codec("core.feature_pipeline", FeaturePipeline)
class _FeaturePipelineCodec:
    def encode(self, pipeline: FeaturePipeline, encoder: _Encoder) -> dict:
        return {
            "include": list(pipeline.include),
            "random_state": pipeline.random_state,
            "neural_config": _jsonable_neural_config(pipeline.neural_config),
            "feature_names": list(pipeline.feature_names_),
            "fitted": pipeline.is_fitted,
            "extractors": {
                name: encoder.encode(extractor)
                for name, extractor in pipeline._extractors.items()
            },
        }

    def decode(self, spec: dict, decoder: _Decoder) -> FeaturePipeline:
        pipeline = FeaturePipeline(
            include=spec["include"],
            neural_config=_decoded_neural_config(spec["neural_config"]) or None,
            random_state=spec["random_state"],
        )
        pipeline._extractors = {
            name: decoder.decode(extractor)
            for name, extractor in spec["extractors"].items()
        }
        pipeline.feature_names_ = list(spec["feature_names"])
        pipeline._fitted = bool(spec["fitted"])
        return pipeline


@_codec("core.mexi_characterizer", MExICharacterizer)
class _MExICharacterizerCodec:
    def encode(self, model: MExICharacterizer, encoder: _Encoder) -> dict:
        _require_fitted(model, model.is_fitted)
        # Label models share one scaler object; preserve the sharing so a
        # loaded model scales its feature matrix once, exactly like a
        # freshly fitted one.
        scalers: list[dict] = []
        scaler_index: dict[int, int] = {}
        label_models = []
        for label_model in model._label_models:
            key = id(label_model.scaler)
            if key not in scaler_index:
                scaler_index[key] = len(scalers)
                scalers.append(encoder.encode(label_model.scaler))
            label_models.append(
                {
                    "classifier": encoder.encode(label_model.classifier),
                    "scaler_index": scaler_index[key],
                    "classifier_name": label_model.classifier_name,
                    "cv_score": float(label_model.cv_score),
                    "constant_label": label_model.constant_label,
                }
            )
        return {
            "variant": model.variant.value,
            "random_state": model.random_state,
            "selection_folds": model.selection_folds,
            "classifier_bank": (
                "default"
                if isinstance(model._classifier_bank, _DefaultClassifierBank)
                else "custom"
            ),
            "pipeline": encoder.encode(model.pipeline),
            "scalers": scalers,
            "label_models": label_models,
        }

    def decode(self, spec: dict, decoder: _Decoder) -> MExICharacterizer:
        model = MExICharacterizer(
            variant=MExIVariant(spec["variant"]),
            pipeline=decoder.decode(spec["pipeline"]),
            selection_folds=int(spec["selection_folds"]),
            random_state=spec["random_state"],
        )
        scalers = [decoder.decode(scaler) for scaler in spec["scalers"]]
        model._label_models = [
            _FittedLabelModel(
                classifier=decoder.decode(entry["classifier"]),
                scaler=scalers[entry["scaler_index"]],
                classifier_name=entry["classifier_name"],
                cv_score=float(entry["cv_score"]),
                constant_label=(
                    None
                    if entry["constant_label"] is None
                    else int(entry["constant_label"])
                ),
            )
            for entry in spec["label_models"]
        ]
        return model


# --------------------------------------------------------------------- #
# Bundle I/O
# --------------------------------------------------------------------- #


def save_model(model: Any, path) -> Path:
    """Persist a fitted estimator as a versioned artifact bundle.

    Args
    ----
    model:
        Any fitted estimator with a registered codec: the classical
        classifiers and the :class:`~repro.ml.preprocessing.StandardScaler`
        from :mod:`repro.ml`, the :class:`~repro.nn.network.Sequential`
        network, the feature extractors / pipeline, or a full
        :class:`~repro.core.characterizer.MExICharacterizer`.
    path:
        Bundle directory to create (parents included).  Existing bundle
        files at the same location are overwritten.

    Returns
    -------
    pathlib.Path
        The bundle directory.

    Raises
    ------
    ArtifactError
        If the model type has no codec or the model is not fitted.
    """
    encoder = _Encoder()
    spec = encoder.encode(model)
    bundle = Path(path)
    # Atomic publication: the bundle is staged next to the target and
    # renamed into place only once fully written and fsynced, so a crash
    # mid-save leaves the previous bundle (or nothing), never a torn one.
    with atomic_bundle_dir(bundle, error=ArtifactError) as staging:
        manifest = {
            "format": ARTIFACT_FORMAT,
            "format_version": ARTIFACT_FORMAT_VERSION,
            "repro_version": repro.__version__,
            "model_type": type(model).__name__,
            "spec": spec,
        }
        write_bundle(
            staging, manifest, encoder.arrays, header_field="spec", error=ArtifactError
        )
    return bundle


def read_manifest(path) -> dict:
    """Read and validate a bundle's manifest without loading its arrays.

    Returns the manifest dict (including the ``spec`` tree), for cheap
    metadata inspection (``python -m repro.serve inspect``).

    Raises
    ------
    ArtifactError
        If the path is not a bundle, the manifest is unreadable, or the
        format name/version is unsupported.
    """
    return read_bundle_manifest(
        path,
        format_name=ARTIFACT_FORMAT,
        supported_versions=SUPPORTED_ARTIFACT_VERSIONS,
        kind="artifact",
        error=ArtifactError,
    )


def load_model(path, manifest: Optional[dict] = None) -> Any:
    """Load a fitted estimator from a bundle created by :func:`save_model`.

    Verifies the format version and the content fingerprint before any
    object is rebuilt, so corrupt or tampered bundles fail loudly.  The
    model is rebuilt zero-copy on the bundle's read-only memory-mapped
    arrays; repeated loads hit the page cache.

    Args
    ----
    path:
        The bundle directory.
    manifest:
        The bundle's manifest, if the caller already read it with
        :func:`read_manifest` (skips a second read/parse of the spec).

    Returns
    -------
    The deserialized estimator; predictions are bitwise identical to the
    model that was saved.

    Raises
    ------
    ArtifactError
        If the bundle is missing files, fails fingerprint verification,
        has an unsupported format version, or names unknown types.
    """
    bundle = Path(path)
    manifest, arrays = read_bundle(
        bundle,
        format_name=ARTIFACT_FORMAT,
        supported_versions=SUPPORTED_ARTIFACT_VERSIONS,
        kind="artifact",
        header_field="spec",
        manifest=manifest,
        error=ArtifactError,
    )
    with decoding(f"bundle {bundle}", ArtifactError):
        return _Decoder(arrays).decode(manifest["spec"])

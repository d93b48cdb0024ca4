"""Versioned on-disk model artifacts (format version 2).

A fitted estimator is saved as a :mod:`repro.io.bundle` bundle: a
``manifest.json`` whose ``spec`` tree describes the object graph (arrays
referenced as ``{"__array__": key}``) next to one raw ``.npy`` file per
array under ``arrays/``, which loading memory-maps read-only and rebuilds
the model on **zero-copy**.  No pickle is involved; loading verifies the
format version and a keyless blake2b content fingerprint (integrity, not
authenticity).  Format-version-1 bundles still load.

A re-signed edit passes the fingerprint, so values are checked again as
they decode.  Most types are **declared** in :data:`_TYPES` (params,
count scalars, fitted arrays with dtype kinds, shapes and value rules,
children); one generic codec encodes, decodes and checks them, and a
value its declaration rejects fails the load with an
:class:`ArtifactError` naming it.  The network's layers, the LRSM
registry and the characterizer's shared scalers do not fit that form and
are hand-written.  A forged value every rule accepts (a weight of the
right shape, dtype and sign) still loads.

Every fitted estimator round-trips to **bitwise-identical predictions**
(a network with its optimizer state).  Custom classifier banks are not
saved (the default is restored); a custom LRSM registry is **rejected**.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import repro
from repro.core.characterizer import (
    MExICharacterizer, MExIVariant, _DefaultClassifierBank, _FittedLabelModel,
)
from repro.core.expert_model import EXPERT_CHARACTERISTICS
from repro.core.features.behavioral import BehavioralFeatures
from repro.core.features.consensus import ConsensusModel
from repro.core.features.mouse import MouseFeatures
from repro.core.features.pipeline import FeaturePipeline
from repro.core.features.predictors import LRSMFeatures
from repro.core.features.sequential import SequentialFeatures
from repro.core.features.spatial import SpatialFeatures
from repro.ml.base import BaseClassifier
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
    atomic_bundle_dir, check_arrays, decoding, read_bundle, read_bundle_manifest, write_bundle,
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


class _Encoder:
    """Collects arrays while codecs build the spec; keys number them in
    ``put`` order, so each codec's order of ``put`` calls is bundle format."""

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}

    def put(self, hint: str, value: Any) -> dict:
        """Store one array and return its spec reference."""
        key = f"{len(self.arrays):06d}/{hint}"
        self.arrays[key] = np.asarray(value)
        return {"__array__": key}

    def encode(self, obj: Any) -> dict:
        """Encode one object through its registered codec."""
        codec = _CODECS_BY_TYPE.get(type(obj))
        if codec is None:
            raise ArtifactError(f"no artifact codec is registered for {type(obj).__name__}")
        spec = codec.encode(obj, self)
        spec["__type__"] = codec.tag
        return spec


class _Decoder:
    """Resolves array references (to the stored, read-only arrays) and types."""

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

    def decode(self, spec: dict, cls: Optional[type] = None) -> Any:
        """Rebuild one object; with ``cls``, it must be an instance of it."""
        codec = _CODECS_BY_TAG.get(spec.get("__type__"))
        if codec is None:
            raise ArtifactError(f"bundle spec names unknown type tag {spec.get('__type__')!r}")
        obj = codec.decode(spec, self)
        if cls is not None and not isinstance(obj, cls):
            raise ArtifactError(f"bundle spec stores a {codec.tag} where a {cls.__name__} belongs")
        return obj


def _require_fitted(estimator: Any, fitted: bool) -> None:
    if not fitted:
        raise ArtifactError(f"cannot save an unfitted {type(estimator).__name__}; fit it first")


def _check_count(value: Any, name: str, where: str) -> int:
    """A spec scalar that must be a non-negative int; it is never cast."""
    if type(value) is not int or value < 0:
        raise ArtifactError(f"{where} stores {name}={value!r}; expected a non-negative integer")
    return value


def _all_finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


#: The value rules an array may declare: its test, and what the load error
#: says the values are not.  Signs are compared only among finite values.
_RULES: dict[str, tuple[Callable[[np.ndarray], bool], str]] = {
    "": (lambda a: True, ""),
    "finite": (_all_finite, "all finite"),
    "nonnegative": (lambda a: _all_finite(a) and bool((a >= 0).all()), "all finite and >= 0"),
    "positive": (lambda a: _all_finite(a) and bool((a > 0).all()), "all finite and positive"),
    # What np.unique gives at fit.
    "increasing": (lambda a: a.size > 0 and bool((a[1:] > a[:-1]).all()), "strictly increasing"),
}


def _check_values(name: str, array: np.ndarray, rule: str, where: str) -> None:
    test, text = _RULES[rule]
    if not test(array):
        raise ArtifactError(f"{where} stores {name!r} values that are not {text}")


def _check_like(arrays: dict, templates: dict, where: str, *, partial: bool = False) -> None:
    """Check that ``arrays`` are finite, shaped and typed like the same-named
    ``templates``; every template needs its array unless ``partial``."""
    unknown = sorted(set(arrays) - set(templates))
    if unknown:
        raise ArtifactError(f"{where} stores arrays {unknown} that it has no place for")
    schema = {name: ("f", templates[name].shape) for name in (arrays if partial else templates)}
    check_arrays(arrays, schema, where=where, error=ArtifactError)
    for name, array in arrays.items():
        if array.dtype != templates[name].dtype:
            raise ArtifactError(f"{where} stores {name!r} as {array.dtype}, not float64")
        _check_values(name, array, "finite", where)


def _tuples(value: Any) -> Any:
    """JSON lists back to the tuples they were written from (``input_shape``)."""
    if isinstance(value, dict):
        return {key: _tuples(item) for key, item in value.items()}
    return tuple(_tuples(item) for item in value) if isinstance(value, list) else value


def _each(form: str, value: Any, function: Callable) -> Any:
    """``function`` over a child of ``form``: ``one``, ``optional``, ``list`` or ``dict``."""
    if form == "list":
        return [function(item) for item in value]
    if form == "dict":
        return {name: function(item) for name, item in value.items()}
    return None if value is None and form == "optional" else function(value)


# --------------------------------------------------------------------- #
# The declaration form, its one codec and the declarations
# --------------------------------------------------------------------- #


class _Array:
    """One declared array.  ``key`` places it in the spec (a ``/`` nests it)
    and, unless ``hint`` differs, names its array key.  ``attr`` holds it;
    without one, the type's ``state`` hook supplies it and ``restore`` takes
    it back by ``leaf``.  A ``shape`` axis is ``None`` (any length), an int,
    a count scalar's key, an earlier array's key (its length) or a ``dims``
    name; ``rule`` names a :data:`_RULES` entry and ``at_most`` a count no
    value may exceed."""

    def __init__(
        self, key, kinds, shape, rule="finite", *, attr=None, hint=None, optional=False,
        at_most=None,
    ) -> None:
        self.key, self.kinds, self.shape, self.rule, self.attr = key, kinds, shape, rule, attr
        self.hint, self.leaf = hint or key, key.rpartition("/")[2]
        self.optional, self.at_most = optional, at_most


class _Type:
    """A type declaration, encoded, decoded and checked by one generic codec.

    The spec holds ``params`` (constructor arguments, read back from the
    same-named attributes; top-level when ``params_at`` is ``None``),
    ``scalars`` (``(key, attr)``; ``counts`` among them are non-negative
    ints), the ``arrays``, an optimizer's ``get_state()`` tree when ``slots``
    gives its hint, and ``children`` (``(key, attr, form, cls)``, see
    :func:`_each`), putting arrays in that order.  ``retired`` params (older
    bundles stored them; they never changed the fitted model) are dropped
    on load, and ``finish`` runs last.  Hand-written codecs pass their own
    ``encode`` and ``decode``.
    """

    _DEFAULTS = dict(
        params=(), params_at="params", retired=(), scalars=(), counts=(), arrays=(),
        slots=None, children=(), dims={}, state=None, restore=None, finish=None,
    )

    def __init__(self, tag: str, cls: type, **declaration) -> None:
        self.__dict__.update(self._DEFAULTS, tag=tag, cls=cls, **declaration)

    def encode(self, obj: Any, encoder: _Encoder) -> dict:
        attrs = [a.attr for a in self.arrays if a.attr and not a.optional]
        _require_fitted(obj, all(getattr(obj, attr) is not None for attr in attrs))
        params = {name: getattr(obj, name) for name in self.params}
        spec: dict = {self.params_at: params} if self.params and self.params_at else params
        for key, attr in self.scalars:
            spec[key] = int(getattr(obj, attr)) if key in self.counts else getattr(obj, attr)
        state = self.state(obj) if self.state else {}
        for array in self.arrays:
            value = getattr(obj, array.attr) if array.attr else state[array.leaf]
            head, _, leaf = array.key.rpartition("/")
            reference = None if value is None else encoder.put(array.hint, value)
            (spec.setdefault(head, {}) if head else spec)[leaf] = reference
        if self.slots:
            spec["state"] = {
                name: {
                    slot: encoder.put(f"{self.slots}/{name}/{slot}", array)
                    for slot, array in value.items()
                } if isinstance(value, dict) else value
                for name, value in obj.get_state().items()
            }
        for key, attr, form, _ in self.children:
            spec[key] = _each(form, getattr(obj, attr), encoder.encode)
        return spec

    def decode(self, spec: dict, decoder: _Decoder) -> Any:
        where = f"{self.tag} spec"
        nested = self.params_at
        params = spec.get(nested, {}) if nested else {name: spec[name] for name in self.params}
        kwargs = {n: _tuples(v) for n, v in params.items() if n not in self.retired}
        obj = self.cls(**kwargs)
        dims: dict = {}
        for key, attr in self.scalars:
            if key in self.counts:
                dims[key] = _check_count(spec[key], key, where)
            setattr(obj, attr, spec[key])
        arrays = {}
        for array in self.arrays:
            head, _, leaf = array.key.rpartition("/")
            reference = (spec[head] if head else spec)[leaf]
            if reference is not None or not array.optional:
                arrays[array] = self._checked(array, decoder.get(reference), dims, where)
                if array.attr:
                    setattr(obj, array.attr, arrays[array])
        if self.restore:
            self.restore(obj, {a.leaf: v for a, v in arrays.items() if not a.attr})
        if self.slots:  # counts, and float slots whose network checks them
            obj.set_state({
                name: {slot: decoder.get(ref) for slot, ref in value.items()}
                if isinstance(value, dict) else _check_count(value, name, where)
                for name, value in spec["state"].items()
            })
        for key, attr, form, cls in self.children:
            setattr(obj, attr, _each(form, spec[key], lambda item: decoder.decode(item, cls)))
        if self.finish:
            self.finish(obj)
        return obj

    def _checked(self, array: _Array, value: np.ndarray, dims: dict, where: str) -> np.ndarray:
        shape = tuple(
            dims[a] if a in dims else self.dims[a](dims) if isinstance(a, str) else a
            for a in array.shape
        )
        schema = {array.key: (array.kinds, shape)}
        check_arrays({array.key: value}, schema, where=where, error=ArtifactError)
        if value.ndim:
            dims[array.key] = value.shape[0]
        _check_values(array.key, value, array.rule, where)
        if array.at_most and value.size and value.max() > dims[array.at_most]:
            limit = f"{array.at_most}={dims[array.at_most]}"
            raise ArtifactError(f"{where} stores {array.key!r} values above {limit}")
        return value


def _classifier(tag: str, cls: type, params: tuple, *arrays: _Array, **declaration) -> _Type:
    """A BaseClassifier: labels of any orderable dtype and a feature count first."""
    classes = _Array("classes", "biufUS", (None,), "increasing", attr="classes_")
    return _Type(
        tag, cls, params=params, scalars=(("n_features_in", "n_features_in_"),),
        counts=("n_features_in",), arrays=(classes,) + arrays, **declaration,
    )


def _linear(tag: str, cls: type, params: tuple) -> _Type:
    return _classifier(
        tag, cls, params,
        _Array("feature_mean", "f", ("n_features_in",), attr="_feature_mean"),
        _Array("feature_scale", "f", ("n_features_in",), "positive", attr="_feature_scale"),
        _Array("weights", "f", ("n_problems", "n_features_in"), attr="_weights"),
        _Array("biases", "f", ("n_problems",), attr="_biases"),
        # A single-class fit has no one-vs-rest problems, so no weight rows.
        dims={"n_problems": lambda dims: dims["classes"] if dims["classes"] > 1 else 0},
    )


def _node(name: str, kinds: str, shape: tuple, rule: str) -> _Array:
    # set_tree_arrays checks the node count, the child links and the split
    # columns, and reports them as inconsistent content.
    return _Array(f"nodes/{name}", kinds, shape, rule, hint=f"tree/{name}")


def _finish_forest(forest: RandomForestClassifier) -> None:
    trees, width, classes = forest.estimators_, forest.n_features_in_, forest.classes_
    if not trees or any(
        t.n_features_in_ != width or not np.isin(t.classes_, classes).all() for t in trees
    ):
        raise ArtifactError(
            "ml.random_forest spec is inconsistent: it needs trees, each with the "
            "forest's n_features_in and only 'classes' the forest has"
        )
    forest._index_trees()


def _consensus_table(model: ConsensusModel) -> dict:
    pairs = sorted(model._counts)
    counts = [model._counts[pair] for pair in pairs]
    return {"pairs": np.array(pairs, np.int64).reshape(-1, 2), "counts": np.array(counts, np.int64)}


def _restore_consensus(model: ConsensusModel, arrays: dict) -> None:
    pairs, counts = arrays["pairs"].tolist(), arrays["counts"].tolist()
    model._counts = {(row, col): count for (row, col), count in zip(pairs, counts)}


_TREE_PARAMS = ("max_depth", "min_samples_split", "min_samples_leaf", "max_features")
_IMPORTANCES = _Array(
    "importances", "f", ("n_features_in",), "nonnegative",
    attr="feature_importances_", optional=True,
)
_CONSENSUS = ("consensus", "consensus", "optional", ConsensusModel)

#: Every declared type.
_TYPES = (
    _classifier(
        "ml.decision_tree", DecisionTreeClassifier, _TREE_PARAMS + ("random_state",),
        _IMPORTANCES,
        _node("feature", "i", (None,), ""),
        _node("threshold", "f", (None,), "finite"),
        _node("children_left", "i", (None,), ""),
        _node("children_right", "i", (None,), ""),
        _node("class_counts", "f", (None, "classes"), "nonnegative"),
        retired=("split_search",),
        state=lambda tree: tree.tree_arrays(),
        restore=lambda tree, nodes: tree.set_tree_arrays(nodes),
    ),
    _classifier(
        "ml.random_forest", RandomForestClassifier,
        ("n_estimators",) + _TREE_PARAMS + ("bootstrap", "random_state"),
        _IMPORTANCES,
        retired=("split_search", "runtime"),
        children=(("estimators", "estimators_", "list", DecisionTreeClassifier),),
        finish=_finish_forest,
    ),
    _linear(
        "ml.logistic_regression", LogisticRegression,
        ("learning_rate", "n_iterations", "regularization", "fit_intercept"),
    ),
    _linear("ml.linear_svc", LinearSVC, ("learning_rate", "n_iterations", "regularization")),
    _classifier(
        "ml.gaussian_nb", GaussianNB, ("var_smoothing",),
        _Array("theta", "f", ("classes", "n_features_in"), attr="_theta"),
        _Array("sigma", "f", ("classes", "n_features_in"), "positive", attr="_sigma"),
        _Array("priors", "f", ("classes",), "positive", attr="_priors"),
    ),
    # The scaler records no feature count: ``mean`` fixes the width.
    _Type(
        "ml.standard_scaler", StandardScaler, params=("with_mean", "with_std"),
        arrays=(
            _Array("mean", "f", (None,), attr="mean_"),
            _Array("scale", "f", ("mean",), "positive", attr="scale_"),
        ),
    ),
    _Type("nn.adam", Adam, params=("learning_rate", "beta1", "beta2", "epsilon"), slots="adam"),
    _Type("nn.sgd", SGD, params=("learning_rate", "momentum"), slots="sgd"),
    _Type(
        "core.consensus", ConsensusModel,
        scalars=(("n_matchers", "_n_matchers"),), counts=("n_matchers",),
        arrays=(
            _Array("pairs", "i", (None, 2), "nonnegative", hint="consensus/pairs"),
            _Array(
                "counts", "i", ("pairs",), "positive", hint="consensus/counts", at_most="n_matchers"
            ),
        ),
        state=_consensus_table,
        restore=_restore_consensus,
    ),
    _Type("core.behavioral_features", BehavioralFeatures, children=(_CONSENSUS,)),
    _Type("core.mouse_features", MouseFeatures),
    _Type(
        "core.sequential_features", SequentialFeatures,
        params=(
            "hidden_dim", "dense_dim", "max_sequence_length", "epochs", "learning_rate",
            "dropout", "random_state",
        ),
        scalars=(("fit_fingerprint", "_fit_fingerprint"),),
        children=(_CONSENSUS, ("network", "_network", "optional", Sequential)),
    ),
    _Type(
        "core.spatial_features", SpatialFeatures,
        params=(
            "input_shape", "n_filters", "epochs", "pretrain", "pretrain_samples", "random_state",
        ),
        scalars=(("fit_fingerprint", "_fit_fingerprint"),),
        children=(("networks", "_networks", "dict", Sequential),),
    ),
    _Type(
        "core.feature_pipeline", FeaturePipeline,
        params=("include", "random_state", "neural_config"), params_at=None,
        scalars=(("feature_names", "feature_names_"), ("fitted", "_fitted")),
        children=(("extractors", "_extractors", "dict", None),),
    ),
)


# Hand-written codecs, for the types the declaration form does not fit.
# The registry is code, so an LRSM extractor stores only its names.
def _encode_lrsm(extractor: LRSMFeatures, encoder: _Encoder) -> dict:
    return {"registry_names": list(extractor.registry.names())}


def _decode_lrsm(spec: dict, decoder: _Decoder) -> LRSMFeatures:
    extractor = LRSMFeatures()
    if list(extractor.registry.names()) != list(spec["registry_names"]):
        raise ArtifactError("bundle was saved with a custom LRSM predictor registry, which "
                            "is not serializable; re-create the extractor in code instead")
    return extractor


#: Layer and loss classes the Sequential codec can rebuild, by class name.
_LAYER_CLASSES = {
    cls.__name__: cls
    for cls in (
        Dense, ReLU, Sigmoid, Tanh, Dropout, Flatten, LSTM, Conv2D, MaxPool2D,
        GlobalAveragePooling2D,
    )
}
_LOSS_CLASSES = {cls.__name__: cls for cls in (BinaryCrossEntropy, MeanSquaredError)}


# A network is an untagged list of layers whose parameters follow from
# each layer's class and config, not from a fixed declaration, so every
# parameter is checked against the freshly built layer instead.
def _encode_sequential(network: Sequential, encoder: _Encoder) -> dict:
    layers = []
    for index, layer in enumerate(network.layers):
        name = type(layer).__name__
        if name not in _LAYER_CLASSES:
            raise ArtifactError(f"no artifact codec for layer type {name}")
        params = {p: encoder.put(f"layer{index}/{p}", value) for p, value in layer.params.items()}
        layers.append({"layer_type": name, "config": layer.config(), "params": params})
    loss: dict[str, Any] = {"loss_type": type(network.loss).__name__}
    if isinstance(network.loss, BinaryCrossEntropy):
        loss["epsilon"] = network.loss.epsilon
    return {
        "layers": layers,
        "loss": loss,
        "optimizer": encoder.encode(network.optimizer),
        "history": [float(value) for value in network.history_],
    }


def _decode_sequential(spec: dict, decoder: _Decoder) -> Sequential:
    layers = []
    for index, entry in enumerate(spec["layers"]):
        layer_cls = _LAYER_CLASSES.get(entry["layer_type"])
        if layer_cls is None:
            raise ArtifactError(f"bundle names unknown layer type {entry['layer_type']!r}")
        layer = layer_cls(**entry["config"])
        params = {param: decoder.get(reference) for param, reference in entry["params"].items()}
        _check_like(params, layer.params, f"nn.sequential spec layer {index}")
        for param, array in params.items():
            layer.params[param][...] = array  # owned and writable: training updates in place
        layers.append(layer)
    loss_cls = _LOSS_CLASSES.get(spec["loss"]["loss_type"])
    if loss_cls is None:
        raise ArtifactError(f"bundle names unknown loss type {spec['loss']['loss_type']!r}")
    loss = loss_cls(**{key: value for key, value in spec["loss"].items() if key != "loss_type"})
    # Each optimizer slot belongs to one layer parameter and has its shape;
    # they are checked before set_state casts them.
    templates = {
        f"{i}:{p}": value for i, layer in enumerate(layers) for p, value in layer.params.items()
    }
    for name, slots in spec["optimizer"]["state"].items():
        if isinstance(slots, dict):
            slots = {slot: decoder.get(reference) for slot, reference in slots.items()}
            _check_like(slots, templates, f"nn.sequential spec optimizer {name}", partial=True)
    network = Sequential(layers).compile(loss=loss, optimizer=decoder.decode(spec["optimizer"]))
    network.history_ = [float(value) for value in spec["history"]]
    return network


# Label models share scaler objects (a loaded model scales its features
# once, like a fitted one), so the scalers are stored once and indexed,
# and the pipeline is encoded after them.  A constant label stores no
# classifier (null).
def _encode_characterizer(model: MExICharacterizer, encoder: _Encoder) -> dict:
    _require_fitted(model, model.is_fitted)
    scalers: dict[int, int] = {}
    scaler_specs, label_models = [], []
    for label_model in model._label_models:
        if id(label_model.scaler) not in scalers:
            scalers[id(label_model.scaler)] = len(scaler_specs)
            scaler_specs.append(encoder.encode(label_model.scaler))
        label_models.append({
            "classifier": (
                None if label_model.classifier is None else encoder.encode(label_model.classifier)
            ),
            "scaler_index": scalers[id(label_model.scaler)],
            "classifier_name": label_model.classifier_name,
            "cv_score": float(label_model.cv_score),
            "constant_label": label_model.constant_label,
        })
    default = isinstance(model._classifier_bank, _DefaultClassifierBank)
    return {
        "variant": model.variant.value,
        "random_state": model.random_state,
        "selection_folds": model.selection_folds,
        "classifier_bank": "default" if default else "custom",
        "pipeline": encoder.encode(model.pipeline),
        "scalers": scaler_specs,
        "label_models": label_models,
    }


def _decode_characterizer(spec: dict, decoder: _Decoder) -> MExICharacterizer:
    where = "core.mexi_characterizer spec"
    pipeline = decoder.decode(spec["pipeline"], FeaturePipeline)
    model = MExICharacterizer(
        variant=MExIVariant(spec["variant"]),
        pipeline=pipeline,
        selection_folds=_check_count(spec["selection_folds"], "selection_folds", where),
        random_state=spec["random_state"],
    )
    # Every scaler and classifier takes the pipeline's output columns.
    width = len(pipeline.feature_names_)
    scalers = [decoder.decode(scaler, StandardScaler) for scaler in spec["scalers"]]
    for index, scaler in enumerate(scalers):
        if scaler.mean_.shape[0] != width:
            raise ArtifactError(
                f"{where} stores scaler {index} of width {scaler.mean_.shape[0]}; "
                f"the pipeline outputs {width} features"
            )
    if len(spec["label_models"]) != len(EXPERT_CHARACTERISTICS):
        raise ArtifactError(
            f"{where} stores {len(spec['label_models'])} label_models; "
            f"expected one per characteristic ({len(EXPERT_CHARACTERISTICS)})"
        )
    for index, entry in enumerate(spec["label_models"]):
        constant = entry["constant_label"]
        if not (constant is None or type(constant) is int):
            raise ArtifactError(f"{where} stores constant_label {constant!r}, not an int or null")
        # A constant label has no classifier; every other label has one.
        if (constant is None) == (entry["classifier"] is None):
            raise ArtifactError(
                f"{where} label model {index} stores constant_label {constant!r} "
                f"with classifier {'null' if entry['classifier'] is None else 'set'}"
            )
        classifier = None
        if constant is None:
            classifier = decoder.decode(entry["classifier"], BaseClassifier)
            if classifier.n_features_in_ != width:
                raise ArtifactError(
                    f"{where} label model {index} stores a classifier with n_features_in="
                    f"{classifier.n_features_in_}; the pipeline outputs {width} features"
                )
        model._label_models.append(_FittedLabelModel(
            classifier=classifier,
            scaler=scalers[_check_count(entry["scaler_index"], "scaler_index", where)],
            classifier_name=entry["classifier_name"],
            cv_score=float(entry["cv_score"]),
            constant_label=constant,
        ))
    return model


_CODECS = _TYPES + (
    _Type("core.lrsm_features", LRSMFeatures, encode=_encode_lrsm, decode=_decode_lrsm),
    _Type("nn.sequential", Sequential, encode=_encode_sequential, decode=_decode_sequential),
    _Type(
        "core.mexi_characterizer", MExICharacterizer,
        encode=_encode_characterizer, decode=_decode_characterizer,
    ),
)
_CODECS_BY_TYPE: dict[type, Any] = {codec.cls: codec for codec in _CODECS}
_CODECS_BY_TAG: dict[str, Any] = {codec.tag: codec for codec in _CODECS}


# --------------------------------------------------------------------- #
# Bundle I/O
# --------------------------------------------------------------------- #

_BUNDLE_FORMAT = dict(
    format_name=ARTIFACT_FORMAT, supported_versions=SUPPORTED_ARTIFACT_VERSIONS,
    kind="artifact", error=ArtifactError,
)


def save_model(model: Any, path) -> Path:
    """Save a fitted estimator of a registered type as a bundle at ``path`` (replacing
    any bundle there) and return it; :class:`ArtifactError` if it cannot."""
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
        write_bundle(staging, manifest, encoder.arrays, header_field="spec", error=ArtifactError)
    return bundle


def read_manifest(path) -> dict:
    """A bundle's validated manifest, ``spec`` included, without its arrays
    (``python -m repro.serve inspect``); :class:`ArtifactError` if invalid."""
    return read_bundle_manifest(path, **_BUNDLE_FORMAT)


def load_model(path, manifest: Optional[dict] = None) -> Any:
    """Load a fitted estimator from a bundle created by :func:`save_model`.

    The format version and content fingerprint are verified before any
    object is rebuilt (pass ``manifest`` if :func:`read_manifest` already
    read it), and each decoded value is checked against its declaration;
    any failure is an :class:`ArtifactError`.  The model predicts bitwise
    like the saved one.
    """
    bundle = Path(path)
    manifest, arrays = read_bundle(bundle, header_field="spec", manifest=manifest, **_BUNDLE_FORMAT)
    with decoding(f"bundle {bundle}", ArtifactError):
        return _Decoder(arrays).decode(manifest["spec"])

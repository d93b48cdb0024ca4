"""Artifact round-trips: bitwise-identical predictions, clear load failures."""

from __future__ import annotations

import json
import re
import shutil

import numpy as np
import pytest

from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.features.cache import matcher_fingerprint
from repro.core.features.consensus import ConsensusModel
from repro.io.bundle import MANIFEST_NAME
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LinearSVC, LogisticRegression
from repro.ml.naive_bayes import GaussianNB
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeClassifier
from repro.nn.layers import Dense, Dropout, ReLU, Sigmoid
from repro.nn.losses import BinaryCrossEntropy
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.nn.recurrent import LSTM
from repro.serve.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    load_model,
    read_manifest,
    save_model,
)
from repro.serve.artifacts import _TYPES  # the declaration table the forged cases come from
from repro.serve.population import load_population, save_population

from tests.oracles.bundles import forge_bundle, to_v1_bundle, write_legacy_population

ESTIMATOR_FACTORIES = {
    "decision_tree": lambda: DecisionTreeClassifier(max_depth=4, random_state=0),
    "decision_tree_unbounded": lambda: DecisionTreeClassifier(max_depth=None, random_state=1),
    "random_forest": lambda: RandomForestClassifier(n_estimators=12, max_depth=5, random_state=0),
    "logistic_regression": lambda: LogisticRegression(n_iterations=80),
    "linear_svc": lambda: LinearSVC(n_iterations=80),
    "gaussian_nb": lambda: GaussianNB(),
}


@pytest.mark.parametrize("name", sorted(ESTIMATOR_FACTORIES))
def test_classifier_roundtrip_bitwise(name, classification_data, tmp_path):
    """Every estimator type reloads to bitwise-identical predict / predict_proba."""
    X, y, X_new = classification_data
    model = ESTIMATOR_FACTORIES[name]().fit(X, y)
    bundle = save_model(model, tmp_path / name)
    loaded = load_model(bundle)
    assert type(loaded) is type(model)
    assert np.array_equal(loaded.classes_, model.classes_)
    for data in (X, X_new):
        assert np.array_equal(loaded.predict(data), model.predict(data))
        assert np.array_equal(loaded.predict_proba(data), model.predict_proba(data))


def test_tree_importances_and_structure_survive(classification_data, tmp_path):
    X, y, _ = classification_data
    tree = DecisionTreeClassifier(max_depth=6, random_state=3).fit(X, y)
    loaded = load_model(save_model(tree, tmp_path / "tree"))
    assert np.array_equal(loaded.feature_importances_, tree.feature_importances_)
    assert loaded.depth() == tree.depth()
    assert loaded.n_leaves() == tree.n_leaves()


def test_forest_importances_survive(classification_data, tmp_path):
    X, y, _ = classification_data
    forest = RandomForestClassifier(n_estimators=8, max_depth=4, random_state=2).fit(X, y)
    loaded = load_model(save_model(forest, tmp_path / "forest"))
    assert np.array_equal(loaded.feature_importances_, forest.feature_importances_)
    assert len(loaded.estimators_) == len(forest.estimators_)


def test_single_class_classifier_roundtrip(tmp_path):
    """Degenerate single-class fits (empty one-vs-rest model lists) round-trip."""
    X = np.arange(12, dtype=float).reshape(6, 2)
    y = np.ones(6, dtype=int)
    for name, factory in (
        ("logreg", lambda: LogisticRegression(n_iterations=10)),
        ("nb", lambda: GaussianNB()),
    ):
        model = factory().fit(X, y)
        loaded = load_model(save_model(model, tmp_path / f"single_{name}"))
        assert np.array_equal(loaded.predict(X), model.predict(X))
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))


def test_standard_scaler_roundtrip(classification_data, tmp_path):
    X, _, X_new = classification_data
    scaler = StandardScaler().fit(X)
    loaded = load_model(save_model(scaler, tmp_path / "scaler"))
    assert np.array_equal(loaded.transform(X_new), scaler.transform(X_new))


def _dense_network(dropout: float = 0.3) -> Sequential:
    network = Sequential(
        [
            Dense(5, 8, seed=0),
            ReLU(),
            Dropout(rate=dropout, seed=1),
            Dense(8, 2, seed=2),
            Sigmoid(),
        ]
    )
    return network.compile(loss=BinaryCrossEntropy(), optimizer=Adam(learning_rate=0.01))


def test_network_roundtrip_bitwise(tmp_path):
    """The nn Sequential reloads layer weights to bitwise-identical outputs."""
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 5))
    y = rng.integers(0, 2, size=(40, 2)).astype(float)
    network = _dense_network().fit(X, y, epochs=3, batch_size=8, random_state=0)
    loaded = load_model(save_model(network, tmp_path / "net"))
    assert np.array_equal(loaded.predict(X), network.predict(X))
    assert loaded.history_ == network.history_


def test_network_optimizer_state_resumes_training(tmp_path):
    """Adam moments/step survive, so resumed training matches uninterrupted training.

    The network is dropout-free: the dropout RNG stream is the one piece of
    training state intentionally not serialized.
    """
    rng = np.random.default_rng(7)
    X = rng.standard_normal((32, 5))
    y = rng.integers(0, 2, size=(32, 2)).astype(float)

    reference = _dense_network(dropout=0.0).fit(X, y, epochs=4, batch_size=8, shuffle=False)

    checkpoint = _dense_network(dropout=0.0).fit(X, y, epochs=2, batch_size=8, shuffle=False)
    resumed = load_model(save_model(checkpoint, tmp_path / "ckpt"))
    resumed.fit(X, y, epochs=2, batch_size=8, shuffle=False)
    assert np.array_equal(resumed.predict(X), reference.predict(X))


def test_network_get_set_state_resumes_in_process():
    """The in-process checkpoint API mirrors the bundle round-trip semantics."""
    rng = np.random.default_rng(13)
    X = rng.standard_normal((24, 5))
    y = rng.integers(0, 2, size=(24, 2)).astype(float)
    reference = _dense_network(dropout=0.0).fit(X, y, epochs=4, batch_size=8, shuffle=False)

    checkpointed = _dense_network(dropout=0.0).fit(X, y, epochs=2, batch_size=8, shuffle=False)
    state = checkpointed.get_state()
    resumed = _dense_network(dropout=0.0)
    resumed.set_state(state)
    resumed.fit(X, y, epochs=2, batch_size=8, shuffle=False)
    assert np.array_equal(resumed.predict(X), reference.predict(X))


def test_tree_arrays_reject_empty():
    """Empty node arrays are invalid (a fitted tree always has a root)."""
    empty_int = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="at least one node"):
        DecisionTreeClassifier().set_tree_arrays(
            {
                "feature": empty_int,
                "threshold": np.zeros(0, dtype=np.float64),
                "children_left": empty_int,
                "children_right": empty_int,
                "class_counts": np.zeros((0, 2)),
            }
        )


def test_lstm_network_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.standard_normal((12, 6, 3))
    y = rng.integers(0, 2, size=(12, 1)).astype(float)
    network = Sequential([LSTM(input_dim=3, hidden_dim=4, seed=0), Dense(4, 1, seed=1), Sigmoid()])
    network.compile(loss=BinaryCrossEntropy(), optimizer=Adam())
    network.fit(X, y, epochs=2, batch_size=4, random_state=0)
    loaded = load_model(save_model(network, tmp_path / "lstm"))
    assert np.array_equal(loaded.predict(X), network.predict(X))


def test_characterizer_roundtrip_offline(offline_model, serve_dataset, tmp_path):
    model = offline_model
    loaded = load_model(save_model(model, tmp_path / "mexi"))
    for cohort in (serve_dataset.po_matchers, serve_dataset.oaei_matchers):
        assert np.array_equal(loaded.predict(cohort), model.predict(cohort))
        assert np.array_equal(loaded.predict_proba(cohort), model.predict_proba(cohort))
    assert loaded.selected_classifiers() == model.selected_classifiers()
    assert loaded.pipeline.include == model.pipeline.include
    assert loaded.pipeline.feature_names_ == model.pipeline.feature_names_
    assert loaded.variant == model.variant


def test_characterizer_roundtrip_neural(neural_model, serve_dataset, tmp_path):
    """The full five-set model (LSTM + CNNs) round-trips bitwise."""
    model = neural_model
    loaded = load_model(save_model(model, tmp_path / "mexi-neural"))
    cohort = serve_dataset.oaei_matchers
    assert np.array_equal(loaded.predict(cohort), model.predict(cohort))
    assert np.array_equal(loaded.predict_proba(cohort), model.predict_proba(cohort))


def test_characterizer_save_load_methods(offline_model, serve_dataset, tmp_path):
    """The MExICharacterizer.save / .load convenience methods round-trip."""
    offline_model.save(tmp_path / "via-method")
    loaded = type(offline_model).load(tmp_path / "via-method")
    assert np.array_equal(
        loaded.predict(serve_dataset.oaei_matchers),
        offline_model.predict(serve_dataset.oaei_matchers),
    )


def test_manifest_metadata(offline_model, tmp_path):
    bundle = save_model(offline_model, tmp_path / "meta")
    manifest = read_manifest(bundle)
    assert manifest["format_version"] == ARTIFACT_FORMAT_VERSION
    assert manifest["model_type"] == "MExICharacterizer"
    assert manifest["arrays"]["count"] > 0
    assert len(manifest["fingerprint"]) == 32


# --------------------------------------------------------------------- #
# Memory-mapped loading (format version 2) and format-version-1 bundles
# --------------------------------------------------------------------- #


def test_load_is_file_backed(classification_data, tmp_path):
    """Bundles decode zero-copy onto read-only memmaps."""
    X, _, X_new = classification_data
    scaler = StandardScaler().fit(X)
    bundle = save_model(scaler, tmp_path / "scaler")
    assert read_manifest(bundle)["arrays"]["layout"] == "mmap-dir"
    loaded = load_model(bundle)
    assert isinstance(loaded.mean_, np.memmap)
    assert not loaded.mean_.flags.writeable
    assert np.array_equal(loaded.transform(X_new), scaler.transform(X_new))


def test_legacy_v1_bundle_still_loads(classification_data, tmp_path):
    """A format-version-1 bundle (arrays.npz, no arrays entry) loads bitwise."""
    X, y, X_new = classification_data
    model = RandomForestClassifier(n_estimators=6, max_depth=4, random_state=0).fit(X, y)
    bundle = to_v1_bundle(save_model(model, tmp_path / "v1"))
    assert (bundle / "arrays.npz").is_file()
    assert read_manifest(bundle)["format_version"] == 1
    loaded = load_model(bundle)
    assert np.array_equal(loaded.predict(X_new), model.predict(X_new))
    assert np.array_equal(loaded.predict_proba(X_new), model.predict_proba(X_new))


def test_mmap_dir_tamper_fails_fingerprint(classification_data, tmp_path):
    X, _, _ = classification_data
    bundle = save_model(StandardScaler().fit(X), tmp_path / "tampered-dir")
    manifest = read_manifest(bundle)
    target = bundle / "arrays" / next(iter(manifest["arrays"]["files"].values()))
    payload = np.load(target)
    np.save(target, payload + 1.0)
    with pytest.raises(ArtifactError, match="fingerprint"):
        load_model(bundle)


def test_characterizer_mmap_roundtrip_bitwise(offline_model, serve_dataset, tmp_path):
    """The full characterizer served off memmapped arrays is bitwise exact."""
    bundle = save_model(offline_model, tmp_path / "mexi-mmap")
    loaded = load_model(bundle)
    cohort = serve_dataset.oaei_matchers
    assert np.array_equal(loaded.predict(cohort), offline_model.predict(cohort))
    assert np.array_equal(
        loaded.predict_proba(cohort), offline_model.predict_proba(cohort)
    )


# --------------------------------------------------------------------- #
# Failure modes
# --------------------------------------------------------------------- #


def test_save_unfitted_rejected(tmp_path):
    with pytest.raises(ArtifactError, match="unfitted"):
        save_model(DecisionTreeClassifier(), tmp_path / "unfitted")


def test_save_unknown_type_rejected(tmp_path):
    with pytest.raises(ArtifactError, match="no artifact codec"):
        save_model(object(), tmp_path / "unknown")


def test_load_missing_bundle(tmp_path):
    with pytest.raises(ArtifactError, match="missing manifest.json"):
        load_model(tmp_path / "nowhere")


def test_load_rejects_wrong_format_version(classification_data, tmp_path):
    X, y, _ = classification_data
    bundle = save_model(GaussianNB().fit(X, y), tmp_path / "versioned")
    manifest = json.loads((bundle / MANIFEST_NAME).read_text())
    manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
    (bundle / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="unsupported artifact format version"):
        load_model(bundle)


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


@pytest.mark.parametrize("form", ["mmap-dir", "v1"])
def test_load_rejects_truncated_arrays(classification_data, tmp_path, form):
    X, y, _ = classification_data
    bundle = save_model(GaussianNB().fit(X, y), tmp_path / "truncated")
    if form == "v1":
        _truncate(to_v1_bundle(bundle) / "arrays.npz")
    else:
        _truncate(max((bundle / "arrays").iterdir(), key=lambda path: path.stat().st_size))
    with pytest.raises(ArtifactError):
        load_model(bundle)


@pytest.mark.parametrize("form", ["mmap-dir", "v1"])
def test_load_rejects_missing_arrays(classification_data, tmp_path, form):
    X, y, _ = classification_data
    bundle = save_model(GaussianNB().fit(X, y), tmp_path / "no-arrays")
    if form == "v1":
        (to_v1_bundle(bundle) / "arrays.npz").unlink()
    else:
        shutil.rmtree(bundle / "arrays")
    with pytest.raises(ArtifactError, match="missing"):
        load_model(bundle)


def test_load_rejects_tampered_content(classification_data, tmp_path):
    """Modifying a v1 array without re-signing fails fingerprint verification."""
    X, y, _ = classification_data
    bundle = to_v1_bundle(save_model(GaussianNB().fit(X, y), tmp_path / "tampered"))
    with np.load(bundle / "arrays.npz", allow_pickle=False) as npz:
        arrays = {key: np.array(npz[key]) for key in npz.files}
    first = next(iter(arrays))
    arrays[first] = arrays[first] + 1.0
    with open(bundle / "arrays.npz", "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with pytest.raises(ArtifactError, match="fingerprint"):
        load_model(bundle)


def test_load_rejects_invalid_manifest_json(classification_data, tmp_path):
    X, y, _ = classification_data
    bundle = save_model(GaussianNB().fit(X, y), tmp_path / "badjson")
    (bundle / MANIFEST_NAME).write_text('{"format": "repro-model-bundle", trunc')
    with pytest.raises(ArtifactError, match="not valid JSON"):
        load_model(bundle)


def _shorten_class_counts(manifest, arrays):
    counts_key = next(key for key in arrays if key.endswith("tree/class_counts"))
    arrays[counts_key] = arrays[counts_key][:1]


def _empty_tree_nodes(manifest, arrays):
    manifest["spec"]["nodes"] = []


def _split_on_missing_column(manifest, arrays):
    feature_key = next(key for key in arrays if key.endswith("tree/feature"))
    arrays[feature_key] = np.where(arrays[feature_key] >= 0, 1_000_000, arrays[feature_key])


@pytest.mark.parametrize(
    "edit",
    [_shorten_class_counts, _empty_tree_nodes, _split_on_missing_column],
    ids=["short-array", "nodes-list", "missing-column"],
)
def test_load_wraps_inconsistent_spec_errors(classification_data, tmp_path, edit):
    """Spec/array clashes surface as ArtifactError, not raw IndexError/AttributeError.

    The bundle is re-signed after the edit, so it passes fingerprint
    verification and the decoder itself must catch the clash.
    """
    X, y, _ = classification_data
    tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
    bundle = forge_bundle(save_model(tree, tmp_path / "inconsistent"), edit, header_field="spec")
    with pytest.raises(ArtifactError, match="inconsistent") as raised:
        load_model(bundle)
    assert raised.type is ArtifactError


def test_load_rejects_forest_without_trees(classification_data, tmp_path):
    """A re-signed forest bundle listing no trees fails to load, not to predict."""
    X, y, _ = classification_data
    forest = RandomForestClassifier(n_estimators=3, max_depth=2, random_state=0).fit(X, y)

    def edit(manifest, arrays):
        manifest["spec"]["estimators"] = []

    bundle = forge_bundle(save_model(forest, tmp_path / "treeless"), edit, header_field="spec")
    with pytest.raises(ArtifactError, match="inconsistent"):
        load_model(bundle)


def _edit_array(name, edit):
    """A ``forge_bundle`` edit rewriting the fitted array stored as ``name``."""

    def apply(manifest, arrays):
        key = next(key for key in arrays if key.endswith(f"/{name}"))
        arrays[key] = edit(arrays[key])

    return apply


def _resign_n_features(manifest, arrays):
    manifest["spec"]["n_features_in"] = 2


def _logreg():
    return LogisticRegression(n_iterations=20)


#: Case -> (model factory, forge edit, array name the load error must name).
HOSTILE_FITTED_ARRAYS = {
    "nb-theta-columns": (GaussianNB, _edit_array("theta", lambda a: a[:, :2]), "theta"),
    "nb-sigma-zero": (GaussianNB, _edit_array("sigma", np.zeros_like), "sigma"),
    "nb-priors-short": (GaussianNB, _edit_array("priors", lambda a: a[:1]), "priors"),
    "nb-priors-negative": (GaussianNB, _edit_array("priors", np.negative), "priors"),
    "nb-n-features": (GaussianNB, _resign_n_features, "theta"),
    "logreg-weights-columns": (_logreg, _edit_array("weights", lambda a: a[:, :2]), "weights"),
    "logreg-biases-empty": (_logreg, _edit_array("biases", lambda a: a[:0]), "biases"),
    "logreg-n-features": (_logreg, _resign_n_features, "feature_mean"),
    "logreg-feature-scale-zero": (
        _logreg,
        _edit_array("feature_scale", np.zeros_like),
        "feature_scale",
    ),
    "logreg-weights-nan": (_logreg, _edit_array("weights", lambda a: a * np.nan), "weights"),
    "svc-feature-scale-short": (
        lambda: LinearSVC(n_iterations=20),
        _edit_array("feature_scale", lambda a: a[:-1]),
        "feature_scale",
    ),
    "nb-theta-rows": (GaussianNB, _edit_array("theta", lambda a: a[:1]), "theta"),
    "nb-theta-nan": (GaussianNB, _edit_array("theta", lambda a: a * np.nan), "theta"),
    "nb-sigma-negative": (GaussianNB, _edit_array("sigma", np.negative), "sigma"),
    "nb-sigma-infinite": (GaussianNB, _edit_array("sigma", lambda a: a + np.inf), "sigma"),
    "nb-priors-zero": (GaussianNB, _edit_array("priors", np.zeros_like), "priors"),
    "nb-priors-integer": (GaussianNB, _edit_array("priors", lambda a: a.astype(np.int64)), "priors"),
    "logreg-feature-mean-short": (
        _logreg,
        _edit_array("feature_mean", lambda a: a[:-1]),
        "feature_mean",
    ),
    "logreg-feature-mean-nan": (
        _logreg,
        _edit_array("feature_mean", lambda a: a * np.nan),
        "feature_mean",
    ),
    "logreg-weights-rows": (_logreg, _edit_array("weights", lambda a: a[:1]), "weights"),
    "logreg-biases-infinite": (_logreg, _edit_array("biases", lambda a: a + np.inf), "biases"),
    "svc-weights-columns": (
        lambda: LinearSVC(n_iterations=20),
        _edit_array("weights", lambda a: a[:, :2]),
        "weights",
    ),
    "svc-biases-empty": (
        lambda: LinearSVC(n_iterations=20),
        _edit_array("biases", lambda a: a[:0]),
        "biases",
    ),
    "svc-feature-scale-negative": (
        lambda: LinearSVC(n_iterations=20),
        _edit_array("feature_scale", np.negative),
        "feature_scale",
    ),
    "svc-n-features": (lambda: LinearSVC(n_iterations=20), _resign_n_features, "feature_mean"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_FITTED_ARRAYS))
def test_load_rejects_fitted_arrays_contradicting_the_model(tmp_path, case):
    """Linear and GaussianNB arrays must fit ``classes_`` and ``n_features_in_``.

    They must also be finite, with positive scales, variances and priors.
    Each forged bundle is re-signed, so it passes fingerprint
    verification; it must fail at load instead of raising a raw error (or
    returning NaN) at predict time.
    """
    factory, edit, name = HOSTILE_FITTED_ARRAYS[case]
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 5))
    y = (X[:, 0] > 0).astype(int)
    model = factory().fit(X, y)
    bundle = forge_bundle(save_model(model, tmp_path / case), edit, header_field="spec")
    with pytest.raises(ArtifactError, match=name) as raised:
        load_model(bundle)
    assert raised.type is ArtifactError


#: Case -> (forge edit of the scaler's arrays, array name the load error must name).
HOSTILE_SCALER_ARRAYS = {
    "mean-short": (_edit_array("mean", lambda a: a[:2]), "scale"),
    "scale-short": (_edit_array("scale", lambda a: a[:2]), "scale"),
    "mean-2d": (_edit_array("mean", lambda a: a[None, :]), "mean"),
    "mean-nan": (_edit_array("mean", lambda a: a * np.nan), "mean"),
    "scale-zero": (_edit_array("scale", np.zeros_like), "scale"),
    "scale-negative": (_edit_array("scale", np.negative), "scale"),
    "scale-infinite": (_edit_array("scale", lambda a: a + np.inf), "scale"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_SCALER_ARRAYS))
def test_load_rejects_scaler_arrays_contradicting_each_other(tmp_path, case):
    """A scaler's ``mean`` and ``scale`` must be equal-length, finite vectors.

    ``scale`` divides at transform time, so it must also be positive (a
    fit never stores a zero).  Each forged bundle is re-signed; it must
    fail at load instead of raising a broadcast error or returning
    non-finite features at transform time.
    """
    edit, name = HOSTILE_SCALER_ARRAYS[case]
    X = np.random.default_rng(5).standard_normal((20, 5))
    bundle = forge_bundle(
        save_model(StandardScaler().fit(X), tmp_path / case), edit, header_field="spec"
    )
    with pytest.raises(ArtifactError, match=name) as raised:
        load_model(bundle)
    assert raised.type is ArtifactError


@pytest.mark.parametrize("tag", ["ml.gradient_boosting", "ml.k_neighbors"])
def test_load_rejects_retired_codec_tags(classification_data, tmp_path, tag):
    """Bundles naming the retired boosting and k-NN codecs fail, naming the tag."""
    X, y, _ = classification_data

    def retag(manifest, arrays):
        manifest["spec"]["__type__"] = tag

    bundle = save_model(GaussianNB().fit(X, y), tmp_path / "retired")
    bundle = forge_bundle(bundle, retag, header_field="spec")
    with pytest.raises(ArtifactError, match=re.escape(repr(tag))):
        load_model(bundle)


def _add_retired_split_param(spec) -> int:
    """Stamp every tree/forest spec with the former ``split_search`` param."""
    stamped = 0
    if isinstance(spec, dict):
        if spec.get("__type__") in ("ml.decision_tree", "ml.random_forest"):
            spec["params"]["split_search"] = "vectorized"
            stamped += 1
        children = spec.values()
    elif isinstance(spec, list):
        children = spec
    else:
        return 0
    return stamped + sum(_add_retired_split_param(child) for child in children)


def test_bundle_with_retired_split_search_still_loads(classification_data, tmp_path):
    """Tree and forest bundles that stored ``split_search`` load and predict bitwise."""
    X, y, X_new = classification_data
    models = {
        "tree": DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y),
        "forest": RandomForestClassifier(n_estimators=6, max_depth=4, random_state=0).fit(X, y),
    }
    for name, model in models.items():
        stamped = []
        bundle = forge_bundle(
            save_model(model, tmp_path / name),
            lambda manifest, arrays: stamped.append(_add_retired_split_param(manifest["spec"])),
            header_field="spec",
        )
        assert stamped[0] >= 1
        loaded = load_model(bundle)
        for data in (X, X_new):
            assert np.array_equal(loaded.predict(data), model.predict(data))
            assert np.array_equal(loaded.predict_proba(data), model.predict_proba(data))


def test_tree_arrays_reject_cycles(classification_data):
    """Crafted node arrays with cycles are rejected instead of hanging predict."""
    X, y, _ = classification_data
    tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
    arrays = tree.tree_arrays()
    hostile = {name: array.copy() for name, array in arrays.items()}
    hostile["feature"][0] = 0
    hostile["children_left"][0] = 0  # self-cycle
    hostile["children_right"][0] = 0
    with pytest.raises(ValueError, match="strictly increasing"):
        DecisionTreeClassifier().set_tree_arrays(hostile)


# --------------------------------------------------------------------- #
# Population files
# --------------------------------------------------------------------- #


def _assert_same_population(loaded, original):
    assert [m.matcher_id for m in loaded] == [m.matcher_id for m in original]
    for saved, fresh in zip(original, loaded):
        assert matcher_fingerprint(fresh) == matcher_fingerprint(saved)
        assert fresh.history.shape == saved.history.shape
        assert fresh.movement.screen == saved.movement.screen


def test_population_roundtrip_preserves_behaviour(serve_dataset, tmp_path):
    """Saved matchers reload with identical behavioural content fingerprints."""
    original = serve_dataset.oaei_matchers
    bundle = save_population(original, tmp_path / "pop")
    assert bundle.is_dir()
    assert json.loads((bundle / MANIFEST_NAME).read_text())["format_version"] == 2
    _assert_same_population(load_population(bundle), original)


def test_legacy_population_file_still_loads(serve_dataset, tmp_path):
    """A format-version-1 single .npz file loads to the same matchers."""
    original = serve_dataset.oaei_matchers
    path = write_legacy_population(
        save_population(original, tmp_path / "pop"), tmp_path / "pop.npz"
    )
    _assert_same_population(load_population(path), original)


def test_population_missing_file(tmp_path):
    with pytest.raises(ArtifactError, match="does not exist"):
        load_population(tmp_path / "missing.npz")


def test_population_truncated_file(serve_dataset, tmp_path):
    path = write_legacy_population(
        save_population(serve_dataset.oaei_matchers, tmp_path / "pop"), tmp_path / "pop.npz"
    )
    _truncate(path)
    with pytest.raises(ArtifactError):
        load_population(path)


def test_population_missing_arrays(tmp_path):
    path = tmp_path / "partial.npz"
    with open(path, "wb") as handle:
        np.savez_compressed(handle, format_version=np.int64(1), ids=np.array(["a"]))
    with pytest.raises(ArtifactError, match="missing arrays"):
        load_population(path)


def test_population_slices_are_views(serve_dataset, tmp_path):
    """Population bundles hand out zero-copy file-backed movement columns."""
    bundle = save_population(serve_dataset.oaei_matchers, tmp_path / "pop-dir")
    loaded = load_population(bundle)
    data = loaded[0].movement.data
    base = data.x
    while base is not None and not isinstance(base, np.memmap):
        base = getattr(base, "base", None)
    assert isinstance(base, np.memmap)
    assert not data.x.flags.writeable


def test_population_bundle_tamper_fails_fingerprint(serve_dataset, tmp_path):
    bundle = save_population(serve_dataset.oaei_matchers, tmp_path / "pop-dir")
    manifest = json.loads((bundle / "manifest.json").read_text())
    target = bundle / "arrays" / manifest["arrays"]["files"]["movement_x"]
    np.save(target, np.load(target) + 1.0)
    with pytest.raises(ArtifactError, match="fingerprint"):
        load_population(bundle)


def test_population_bundle_rejects_wrong_version(serve_dataset, tmp_path):
    bundle = save_population(serve_dataset.oaei_matchers, tmp_path / "pop-dir")
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["format_version"] = 99
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="unsupported population format version"):
        load_population(bundle)


@pytest.mark.parametrize("runtime", [None, "serial", "process:2"])
def test_forest_bundle_with_retired_runtime_still_loads(classification_data, tmp_path, runtime):
    """Forest manifests that still carry ``params.runtime`` load and predict bitwise.

    Forests used to fan their trees out on that runtime; it never changed
    the fitted model, and ``_construct`` drops it on load.
    """
    X, y, X_new = classification_data
    forest = RandomForestClassifier(n_estimators=6, max_depth=4, random_state=0).fit(X, y)

    def add_runtime(manifest, arrays):
        assert "runtime" not in manifest["spec"]["params"]
        manifest["spec"]["params"]["runtime"] = runtime

    bundle = forge_bundle(save_model(forest, tmp_path / "forest"), add_runtime, header_field="spec")
    loaded = load_model(bundle)
    assert not hasattr(loaded, "runtime")
    for data in (X, X_new):
        assert np.array_equal(loaded.predict_proba(data), forest.predict_proba(data))


# --------------------------------------------------------------------- #
# Forged values the hand-written decoders used to accept
# --------------------------------------------------------------------- #


def _spec_node(spec, tag):
    """The first node of ``spec`` (pre-order) whose type tag is ``tag``."""
    if isinstance(spec, dict):
        if spec.get("__type__") == tag:
            return spec
        children = spec.values()
    elif isinstance(spec, list):
        children = spec
    else:
        return None
    return next((node for child in children if (node := _spec_node(child, tag))), None)


def _forge_node(tag, edit):
    """A ``forge_bundle`` edit: ``edit(node, arrays)`` on the first ``tag`` node."""

    def apply(manifest, arrays):
        edit(_spec_node(manifest["spec"], tag), arrays)

    return apply


def _replace(reference_of, change):
    """A node edit replacing the array behind ``reference_of(node)`` by ``change(array)``."""

    def edit(node, arrays):
        key = reference_of(node)["__array__"]
        arrays[key] = change(arrays[key])

    return edit


def _load_forged(model, tmp_path, tag, edit):
    bundle = save_model(model, tmp_path / "forged")
    return load_model(forge_bundle(bundle, _forge_node(tag, edit), header_field="spec"))


def test_network_rejects_dense_weight_cut_to_one_cell(tmp_path):
    """A (1, 1) ``W`` used to broadcast into all of the layer's weights."""
    edit = _replace(lambda node: node["layers"][0]["params"]["W"], lambda a: a[:1, :1])
    with pytest.raises(ArtifactError, match="'W'"):
        _load_forged(_dense_network(), tmp_path, "nn.sequential", edit)


def test_network_rejects_missing_layer_param(tmp_path):
    """A layer spec without ``W`` used to keep freshly initialised weights."""

    def drop_weight(node, arrays):
        del node["layers"][0]["params"]["W"]

    with pytest.raises(ArtifactError, match="'W'"):
        _load_forged(_dense_network(), tmp_path, "nn.sequential", drop_weight)


def _consensus_edits():
    def n_matchers(value):
        def edit(node, arrays):
            node["n_matchers"] = value

        return edit

    def counts(node):
        return node["counts"]

    return {
        "counts-negated": (_replace(counts, np.negative), "counts"),
        "counts-times-100": (_replace(counts, lambda a: a * 100), "counts"),
        "n-matchers-negative": (n_matchers(-2), "n_matchers"),
        "pairs-fractional": (_replace(lambda node: node["pairs"], lambda a: a + 0.5), "pairs"),
    }


@pytest.mark.parametrize("case", sorted(_consensus_edits()))
def test_consensus_rejects_forged_counts(serve_dataset, tmp_path, case):
    """Negated or inflated counts gave agreements outside [0, 1]; pairs were truncated."""
    edit, name = _consensus_edits()[case]
    model = ConsensusModel().fit(serve_dataset.po_matchers)
    with pytest.raises(ArtifactError, match=name) as raised:
        _load_forged(model, tmp_path, "core.consensus", edit)
    assert raised.type is ArtifactError


def test_classifier_rejects_repeated_classes(classification_data, tmp_path):
    """``classes`` forged to ``[0, 0]`` used to load and predict only label 0."""
    X, y, _ = classification_data
    edit = _replace(lambda node: node["classes"], lambda a: np.repeat(a[:1], a.size))
    with pytest.raises(ArtifactError, match="'classes'"):
        _load_forged(_logreg().fit(X, y), tmp_path, "ml.logistic_regression", edit)


def test_forest_rejects_short_importances(classification_data, tmp_path):
    X, y, _ = classification_data
    forest = RandomForestClassifier(n_estimators=3, max_depth=3, random_state=0).fit(X, y)
    edit = _replace(lambda node: node["importances"], lambda a: a[:1])
    with pytest.raises(ArtifactError, match="'importances'"):
        _load_forged(forest, tmp_path, "ml.random_forest", edit)


def test_forest_rejects_tree_with_other_feature_count(classification_data, tmp_path):
    """Each tree must take the forest's features (its own arrays are consistent)."""
    X, y, _ = classification_data
    forest = RandomForestClassifier(n_estimators=3, max_depth=3, random_state=0).fit(X, y)

    def widen_tree(node, arrays):
        tree = node["estimators"][0]
        tree["n_features_in"] += 1
        tree["importances"] = None

    with pytest.raises(ArtifactError, match="n_features_in"):
        _load_forged(forest, tmp_path, "ml.random_forest", widen_tree)


@pytest.mark.parametrize(
    "field,value", [("scaler_index", -1), ("constant_label", 0.5), ("selection_folds", 1e300)]
)
def test_characterizer_rejects_forged_label_model_scalars(offline_model, tmp_path, field, value):
    """Cast scalars used to wrap (a negative index) or truncate (a fractional label)."""

    def edit(node, arrays):
        if field == "selection_folds":
            node[field] = value
        else:
            node["label_models"][0][field] = value

    with pytest.raises(ArtifactError, match=field):
        _load_forged(offline_model, tmp_path, "core.mexi_characterizer", edit)


def _drop_first_label_model(node, arrays):
    del node["label_models"][0]


def _repeat_last_label_model(node, arrays):
    node["label_models"].append(node["label_models"][-1])


def _cut_scalers(node, arrays):
    for scaler in node["scalers"]:
        for name in ("mean", "scale"):
            key = scaler[name]["__array__"]
            arrays[key] = arrays[key][:-1]


def _cut_pipeline_and_scalers(node, arrays):
    # The scalers agree with the narrowed pipeline; the classifiers do not.
    node["pipeline"]["feature_names"] = node["pipeline"]["feature_names"][:-1]
    _cut_scalers(node, arrays)


def _null_classifier(node, arrays):
    node["label_models"][0]["classifier"] = None


def _constant_with_classifier(node, arrays):
    node["label_models"][0]["constant_label"] = 1


@pytest.mark.parametrize(
    "edit,match",
    [
        (_drop_first_label_model, "label_models"),
        (_repeat_last_label_model, "label_models"),
        (_cut_scalers, "scaler 0 of width"),
        (_cut_pipeline_and_scalers, "n_features_in"),
        (_null_classifier, "classifier null"),
        (_constant_with_classifier, "classifier set"),
    ],
    ids=[
        "first-label-model-dropped", "label-model-repeated", "scaler-narrowed",
        "classifier-wider-than-pipeline", "classifier-null", "constant-with-classifier",
    ],
)
def test_characterizer_rejects_inconsistent_label_models(offline_model, tmp_path, edit, match):
    """A dropped label model used to shift every characteristic onto its
    neighbour's model; widths are checked against the pipeline's output."""
    with pytest.raises(ArtifactError, match=match):
        _load_forged(offline_model, tmp_path, "core.mexi_characterizer", edit)


def test_characterizer_with_constant_label_roundtrips(serve_dataset, serve_labels, tmp_path):
    """A degenerate (constant) label stores no classifier and round-trips bitwise."""
    labels = np.array(serve_labels)
    labels[:, 3] = 1
    model = MExICharacterizer(
        variant=MExIVariant.SUB_50, feature_sets=("lrsm", "beh", "mou"), random_state=5,
    ).fit(serve_dataset.po_matchers, labels)
    bundle = save_model(model, tmp_path / "constant")
    entry = read_manifest(bundle)["spec"]["label_models"][3]
    assert (entry["classifier"], entry["constant_label"]) == (None, 1)
    loaded = load_model(bundle)
    for cohort in (serve_dataset.po_matchers, serve_dataset.oaei_matchers):
        assert np.array_equal(loaded.predict(cohort), model.predict(cohort))
        assert loaded.predict_proba(cohort).tobytes() == model.predict_proba(cohort).tobytes()
    assert loaded.selected_classifiers() == model.selected_classifiers()
    assert model.selected_classifiers()["calibrated"] == "constant"


# --------------------------------------------------------------------- #
# Forged bundles generated from the declaration table
# --------------------------------------------------------------------- #


def _declarations():
    return {declaration.tag: declaration for declaration in _TYPES}


#: A fitted model of each declared type that stores arrays or counts,
#: built from ``(X, y, matchers)``; its bundle's root node has that type.
CARRIERS = {
    "ml.decision_tree": lambda X, y, m: DecisionTreeClassifier(max_depth=3).fit(X, y),
    "ml.random_forest": lambda X, y, m: RandomForestClassifier(
        n_estimators=3, max_depth=3, random_state=0
    ).fit(X, y),
    "ml.logistic_regression": lambda X, y, m: _logreg().fit(X, y),
    "ml.linear_svc": lambda X, y, m: LinearSVC(n_iterations=20).fit(X, y),
    "ml.gaussian_nb": lambda X, y, m: GaussianNB().fit(X, y),
    "ml.standard_scaler": lambda X, y, m: StandardScaler().fit(X),
    "core.consensus": lambda X, y, m: ConsensusModel().fit(m),
}


def _first(value):
    def edit(array):
        array = np.array(array)
        array.flat[0] = value
        return array

    return edit


def _wrong_kind(kinds):
    dtype = next(d for d in (np.int64, np.float64, np.complex128) if np.dtype(d).kind not in kinds)
    return lambda array: np.asarray(array).astype(dtype)


#: The value each rule must reject, by rule name (NaN only in float arrays).
RULE_BREAKERS = {
    "finite": {"nan": _first(np.nan)},
    "nonnegative": {"nan": _first(np.nan), "negative": _first(-1)},
    "positive": {"nan": _first(np.nan), "zero": _first(0), "negative": _first(-1)},
    "increasing": {
        "repeated": lambda a: np.repeat(a[:1], a.size),
        "reversed": lambda a: np.array(a[::-1]),
    },
    "": {},
}


def _at(path):
    """The node edit target: a ``/`` path inside a type's spec node."""
    head, _, leaf = path.rpartition("/")
    return lambda node: (node[head] if head else node)[leaf]


def _generated_cases():
    cases = {}
    for tag, declaration in _declarations().items():
        for array in declaration.arrays:
            edits = {"cut": lambda a: np.array(a[:-1]), "kind": _wrong_kind(array.kinds)}
            for name, breaker in RULE_BREAKERS[array.rule].items():
                if name != "nan" or array.kinds == "f":
                    edits[name] = breaker
            if array.at_most:
                edits["above-" + array.at_most] = _first(10**6)
            for name, change in edits.items():
                cases[f"{tag}:{array.key}:{name}"] = (tag, _replace(_at(array.key), change))
        for key in declaration.counts:
            values = {
                "negative": lambda v: -2,
                "fractional": lambda v: v + 0.5,
                "huge": lambda v: 1e300,
                "text": str,
                "zero": lambda v: 0,
            }
            if any(key in array.shape for array in declaration.arrays):
                values["plus-one"] = lambda v: v + 1
            for name, change in values.items():

                def edit(node, arrays, key=key, change=change):
                    node[key] = change(node[key])

                cases[f"{tag}:{key}:{name}"] = (tag, edit)
    return cases


GENERATED_CASES = _generated_cases()


def test_every_declared_type_with_fitted_state_has_a_carrier():
    """A new declaration with arrays or counts needs a carrier, or its cases go missing."""
    stateful = {tag for tag, d in _declarations().items() if d.arrays or d.counts}
    assert stateful == set(CARRIERS)


@pytest.mark.parametrize("case", sorted(GENERATED_CASES))
def test_load_rejects_forged_declared_value(classification_data, serve_dataset, tmp_path, case):
    """Each declared array cut, of the wrong dtype kind or breaking its rule, and
    each count re-signed, fails at load with an ArtifactError."""
    tag, edit = GENERATED_CASES[case]
    X, y, _ = classification_data
    model = CARRIERS[tag](X, y, serve_dataset.po_matchers)
    with pytest.raises(ArtifactError) as raised:
        _load_forged(model, tmp_path, tag, edit)
    assert raised.type is ArtifactError


def _network_cases():
    """Cases for every layer parameter and optimizer slot of ``_dense_network``.

    A network's arrays follow from its layers, not from a declaration, so
    the cases come from the network's own parameters.
    """
    network = _dense_network(dropout=0.0)
    changes = {"cut": lambda a: np.array(a[:-1]), "kind": _wrong_kind("f"), "nan": _first(np.nan)}
    cases = {}
    for index, layer in enumerate(network.layers):
        for param in layer.params:
            place = (lambda i, p: lambda node: node["layers"][i]["params"][p])(index, param)
            for name, change in changes.items():
                cases[f"layer{index}/{param}:{name}"] = _replace(place, change)

            def drop(node, arrays, i=index, p=param):
                del node["layers"][i]["params"][p]

            cases[f"layer{index}/{param}:missing"] = drop
            for group in ("first_moment", "second_moment"):
                slot = f"{index}:{param}"
                place = (lambda g, s: lambda node: node["optimizer"]["state"][g][s])(group, slot)
                for name, change in changes.items():
                    cases[f"adam/{group}/{slot}:{name}"] = _replace(place, change)
    return cases


NETWORK_CASES = _network_cases()


@pytest.mark.parametrize("case", sorted(NETWORK_CASES))
def test_load_rejects_forged_network_array(tmp_path, case):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((16, 5))
    y = rng.integers(0, 2, size=(16, 2)).astype(float)
    network = _dense_network(dropout=0.0).fit(X, y, epochs=1, batch_size=8)
    with pytest.raises(ArtifactError) as raised:
        _load_forged(network, tmp_path, "nn.sequential", NETWORK_CASES[case])
    assert raised.type is ArtifactError

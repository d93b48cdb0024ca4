"""Byte pins of saved model bundles.

A bundle's bytes are its format: array keys are numbered in the order
the encoder puts them, and the manifest's spec carries every parameter
and hint.  These pins catch any change to that order, to a key hint or
to a spec field, which round-trip tests cannot see (a reordered bundle
still loads).  Between them the five bundles carry every type tag the
artifact codec knows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.naive_bayes import GaussianNB
from repro.nn.layers import Dense, Sigmoid, Tanh
from repro.nn.losses import MeanSquaredError
from repro.nn.network import Sequential
from repro.nn.optimizers import SGD
from repro.serve.artifacts import read_manifest, save_model

#: Bundle -> (manifest fingerprint, SHA-256 of manifest.json).
PINNED_BUNDLES = {
    "offline_model": (
        "f30ebace55196a9ab869d2e129864bd8",
        "4f3ea7a202678d38ddf4f36ec4f7ced20885c84ffac30763a66b2949ef1a2304",
    ),
    "neural_model": (
        "db310b5d2fe0206c5f58a4d937c18a04",
        "745ae49edbb69dc18db7a202de8e8b84d27714be50cdcb0f2c498853340ba310",
    ),
    "gaussian_nb": (
        "445853d4f8bb3b9e9a16396c81de019b",
        "54d8d0067ef418bcebdd713ce21c2e163dc630f6392b660a477d9b0c6ab78e7a",
    ),
    "random_forest": (
        "d5e375b92638543e780088836e66f1ab",
        "57882be181a9303af7c27df2f2cc96f994689bc5de34a76ceffaabb583b52a93",
    ),
    "sgd_network": (
        "9fac70e141fa6ae461127d77526cd21c",
        "d84d2cc7ca49cb42ca11f55ea3a3bd528129e2f2466c1698200e4046b8153f06",
    ),
}


def _sgd_network() -> Sequential:
    rng = np.random.default_rng(21)
    X = rng.standard_normal((24, 4))
    y = rng.integers(0, 2, size=(24, 1)).astype(float)
    network = Sequential([Dense(4, 6, seed=0), Tanh(), Dense(6, 1, seed=1), Sigmoid()])
    network.compile(loss=MeanSquaredError(), optimizer=SGD(learning_rate=0.05, momentum=0.9))
    return network.fit(X, y, epochs=3, batch_size=8, shuffle=False)


@pytest.fixture
def pinned_model(request, classification_data):
    name = request.param
    X, y, _ = classification_data
    if name == "gaussian_nb":
        return GaussianNB().fit(X, y)
    if name == "random_forest":
        return RandomForestClassifier(n_estimators=4, max_depth=3, random_state=0).fit(X, y)
    if name == "sgd_network":
        return _sgd_network()
    return request.getfixturevalue(name)


@pytest.mark.parametrize("pinned_model", sorted(PINNED_BUNDLES), indirect=True)
def test_bundle_bytes_pinned(pinned_model, request, tmp_path):
    name = request.node.callspec.params["pinned_model"]
    bundle = save_model(pinned_model, tmp_path / name)
    fingerprint = read_manifest(bundle)["fingerprint"]
    digest = hashlib.sha256((bundle / "manifest.json").read_bytes()).hexdigest()
    assert (fingerprint, digest) == PINNED_BUNDLES[name]

"""Byte mutation of the one bundle reader, for all three bundle formats.

Model, population and checkpoint bundles share one writer and one
verified reader (:mod:`repro.io.bundle`).  Hypothesis mutates the bytes
of a valid bundle's ``manifest.json`` and, separately, of one of its
array files, and of the single ``.npz`` of the format-version-1 form
the reader still accepts.  Every example must either load or raise that format's
typed error (``ArtifactError`` / ``CheckpointError``) within the
deadline: never a bare builtin exception, never a hang.

Random bytes rarely survive the content fingerprint, so the fixed cases
below forge bundles that do — edited arrays, re-signed — with the
ragged-offset and event-column payloads the readers must catch
themselves.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.oracles.bundles import forge_bundle, to_v1_bundle, write_legacy_population

FORMATS = ("model", "population", "checkpoint")

MUTATION_SETTINGS = settings(
    max_examples=40,
    deadline=5000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_DIGITS = b"0123456789"


def _mutations(blob: bytes):
    """Overwrite, truncate, insert, or swap digits (which keeps JSON valid)."""
    positions = st.integers(0, len(blob) - 1)
    digits = [index for index, byte in enumerate(blob) if byte in _DIGITS]

    def overwrite(edits):
        data = bytearray(blob)
        for position, value in edits:
            data[position] = value
        return bytes(data)

    strategies = [
        st.lists(st.tuples(positions, st.integers(0, 255)), min_size=1, max_size=4).map(
            overwrite
        ),
        st.integers(0, len(blob) - 1).map(lambda end: blob[:end]),
        st.tuples(st.integers(0, len(blob)), st.binary(min_size=1, max_size=8)).map(
            lambda insert: blob[: insert[0]] + insert[1] + blob[insert[0]:]
        ),
    ]
    if digits:
        strategies.append(
            st.lists(
                st.tuples(st.sampled_from(digits), st.sampled_from(list(_DIGITS))),
                min_size=1,
                max_size=3,
            ).map(overwrite)
        )
    return st.one_of(strategies)


def _replace(path, data: bytes) -> None:
    """Swap in new file content under a new inode (live memmaps keep the old)."""
    staged = path.with_name(path.name + ".mutant")
    staged.write_bytes(data)
    os.replace(staged, path)


@pytest.mark.parametrize("target", ["manifest", "array", "legacy-npz"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_byte_mutation_loads_or_raises_typed(bundle_formats, fmt, target, tmp_path):
    write, read, error = bundle_formats[fmt]
    bundle = write(tmp_path / fmt)
    if target == "manifest":
        candidates = [bundle / "manifest.json"]
    elif target == "array":
        candidates = sorted((bundle / "arrays").iterdir())
    elif fmt == "population":  # the format-version-1 single-file population
        bundle = write_legacy_population(bundle, tmp_path / "population.npz")
        candidates = [bundle]
    else:
        candidates = [to_v1_bundle(bundle) / "arrays.npz"]
    originals = {path: path.read_bytes() for path in candidates}

    @MUTATION_SETTINGS
    @given(data=st.data())
    def check(data):
        path = data.draw(st.sampled_from(candidates), label="file")
        _replace(path, data.draw(_mutations(originals[path]), label="bytes"))
        try:
            read(bundle)
        except error:
            pass  # the typed error; anything else fails the example
        finally:
            _replace(path, originals[path])

    check()


# --------------------------------------------------------------------- #
# Forged (re-signed) bundles: the readers' own content checks
# --------------------------------------------------------------------- #


def _swap_first_offsets(key):
    def edit(manifest, arrays):
        offsets = arrays[key]
        assert offsets[2] > offsets[1]
        offsets[1], offsets[2] = offsets[2], offsets[1]  # now decreasing

    return edit


def _bump_last(key, by):
    def edit(manifest, arrays):
        arrays[key][-1] += by

    return edit


def _set_first(key, value):
    def edit(manifest, arrays):
        arrays[key][0] = value

    return edit


def _trim(key, view):
    def edit(manifest, arrays):
        arrays[key] = np.ascontiguousarray(view(arrays[key]))

    return edit


def _split_decision_row(manifest, arrays):
    """Drop the last decision's timestamp: a chunk that is not whole rows."""
    arrays["decisions"] = arrays["decisions"][:-1].copy()
    arrays["decision_offsets"][-1] -= 1


FORGED = {
    "population": {
        "history-offsets-decreasing": _swap_first_offsets("history_offsets"),
        "history-offsets-past-end": _bump_last("history_offsets", 5),
        "history-offsets-shorter-than-ids": _trim("history_offsets", lambda a: a[:-1]),
        "movement-offsets-past-end": _bump_last("movement_offsets", 5),
        "event-code-99": _set_first("movement_codes", 99),
        "event-time-nan": _set_first("movement_timestamps", np.nan),
        "decision-confidence-2": _set_first("history_confidences", 2.0),
    },
    "checkpoint": {
        "committed-t-offsets-past-end": _bump_last("committed_t_offsets", 3),
        "decision-offsets-past-end": _bump_last("decision_offsets", 4),
        "decisions-not-whole-rows": _split_decision_row,
        "event-code-99": _set_first("committed_codes", 99),
        "event-time-negative": _set_first("committed_t", -1.0),
        "shapes-short": _trim("shapes", lambda a: a[:-1]),
        "buffer-scalars-narrow": _trim("buffer_scalars", lambda a: a[:, :3]),
        "ids-not-strings": _trim("ids", lambda a: np.arange(a.shape[0])),
    },
}


@pytest.mark.parametrize(
    "fmt, case",
    [(fmt, case) for fmt, cases in sorted(FORGED.items()) for case in sorted(cases)],
)
def test_forged_bundle_raises_typed(bundle_formats, fmt, case, tmp_path):
    write, read, error = bundle_formats[fmt]
    bundle = forge_bundle(write(tmp_path / fmt), FORGED[fmt][case])
    with pytest.raises(error) as raised:
        read(bundle)
    assert raised.type is error

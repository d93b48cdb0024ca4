"""Scoring-population bundles: matcher behaviour in a flat columnar encoding.

A *population* carries exactly what the serving path reads from a
:class:`~repro.matching.matcher.HumanMatcher` — the identifier, the full
decision history (pairs, confidences, timestamps, matrix shape) and the
movement map (positions, event types, timestamps, screen size).  Task
schemata, reference matches and self-reported metadata are **not**
stored: they are training/evaluation context, never consumed by feature
extraction, so a loaded population produces bitwise-identical feature
blocks and predictions (its content fingerprints match the originals).

Ragged per-matcher sequences use the flat-plus-offsets codec of
:mod:`repro.io.bundle`.  :func:`save_population` writes a format-version-2
bundle *directory* through that shared contract; its columns are
memory-mapped on load and sliced per matcher **zero-copy** — the
per-matcher movement columns are read-only views into the file-backed
arrays, so load cost is O(pages-touched) and concurrent scorers share
physical pages.  :func:`load_population` also reads the historical
format-version-1 single compressed ``.npz`` file, detecting the form
from the path (file vs. directory).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.io.bundle import (
    atomic_bundle_dir,
    check_arrays,
    decoding,
    ragged_decode,
    ragged_encode,
    read_bundle,
    read_npz,
    write_bundle,
)
from repro.matching.events import check_event_columns
from repro.matching.history import Decision, DecisionHistory
from repro.matching.matcher import HumanMatcher
from repro.matching.mouse import MovementMap
from repro.serve.artifacts import ArtifactError

#: Bundle format identifier written into version-2 population manifests.
POPULATION_FORMAT = "repro-population-bundle"

#: Current population format version (2 = bundle directory; 1 = the
#: historical single compressed ``.npz`` file).
POPULATION_FORMAT_VERSION = 2

#: The single-file format version stamped into (and accepted from) the
#: legacy ``.npz`` form.
_LEGACY_FILE_VERSION = 1


def _schema(n: int) -> dict:
    """``check_arrays`` schema of an ``n``-matcher population."""
    return {
        "ids": ("U", (n,)),
        "history_offsets": ("iu", (n + 1,)),
        "history_rows": ("iu", (None,)),
        "history_cols": ("iu", (None,)),
        "history_confidences": ("f", (None,)),
        "history_timestamps": ("f", (None,)),
        "history_shapes": ("iu", (n, 2)),
        "movement_offsets": ("iu", (n + 1,)),
        "movement_x": ("f", (None,)),
        "movement_y": ("f", (None,)),
        "movement_codes": ("iu", (None,)),
        "movement_timestamps": ("f", (None,)),
        "movement_screens": ("iu", (n, 2)),
    }


def _population_arrays(matchers: Sequence[HumanMatcher]) -> dict[str, np.ndarray]:
    """Flatten matchers into the columnar arrays a population stores."""
    matchers = list(matchers)
    # One (row, col, confidence, timestamp) row per decision, memoised per history.
    history, history_offsets = ragged_encode(
        [matcher.history.columns() for matcher in matchers], np.float64
    )
    # One (x, y, code, timestamp) row per event; codes are small exact integers.
    events = [matcher.movement.data for matcher in matchers]
    movement, movement_offsets = ragged_encode(
        [np.column_stack((e.x, e.y, e.codes, e.t)) for e in events], np.float64
    )
    history = history.reshape(-1, 4)
    movement = movement.reshape(-1, 4)
    return {
        "ids": np.array([matcher.matcher_id for matcher in matchers], dtype=np.str_),
        "history_offsets": history_offsets,
        "history_rows": history[:, 0].astype(np.int64),
        "history_cols": history[:, 1].astype(np.int64),
        "history_confidences": history[:, 2],
        "history_timestamps": history[:, 3],
        "history_shapes": np.array(
            [matcher.history.shape for matcher in matchers], dtype=np.int64
        ).reshape(-1, 2),
        "movement_offsets": movement_offsets,
        "movement_x": movement[:, 0],
        "movement_y": movement[:, 1],
        "movement_codes": movement[:, 2].astype(np.int64),
        "movement_timestamps": movement[:, 3],
        "movement_screens": np.array(
            [matcher.movement.screen for matcher in matchers], dtype=np.int64
        ).reshape(-1, 2),
    }


def save_population(matchers: Sequence[HumanMatcher], path) -> Path:
    """Write a scoring population as a format-version-2 bundle directory.

    Args
    ----
    matchers:
        The matchers to persist (their task / reference context is
        intentionally dropped — see the module docstring).
    path:
        The bundle directory to create.

    Returns
    -------
    pathlib.Path
        The written bundle directory.
    """
    arrays = _population_arrays(matchers)
    destination = Path(path)
    with atomic_bundle_dir(destination, error=ArtifactError) as staging:
        manifest = {
            "format": POPULATION_FORMAT,
            "format_version": POPULATION_FORMAT_VERSION,
            "n_matchers": int(arrays["ids"].shape[0]),
        }
        write_bundle(staging, manifest, arrays, error=ArtifactError)
    return destination


def load_population(path) -> list[HumanMatcher]:
    """Load a population written by :func:`save_population` (either form).

    Args
    ----
    path:
        A format-version-2 bundle directory (memory-mapped, sliced
        zero-copy) or a format-version-1 ``.npz`` file.

    Returns
    -------
    list[HumanMatcher]
        Matchers with behaviour identical to the saved ones (no task /
        reference context — these populations are for scoring only).

    Raises
    ------
    ArtifactError
        If the path is missing, unreadable, from an unsupported format
        version, fails fingerprint verification (bundle form), or holds
        missing, malformed or inconsistent arrays.
    """
    source = Path(path)
    if source.is_dir():
        _, data = read_bundle(
            source,
            format_name=POPULATION_FORMAT,
            supported_versions=(POPULATION_FORMAT_VERSION,),
            kind="population",
            error=ArtifactError,
        )
        return _matchers_from_arrays(data, f"population bundle {source}")
    if not source.is_file():
        raise ArtifactError(f"population file {source} does not exist")
    where = f"population file {source}"
    data = read_npz(source, what=where, error=ArtifactError)
    check_arrays(data, {"format_version": ("iu", ())}, where=where, error=ArtifactError)
    version = int(data["format_version"])
    if version != _LEGACY_FILE_VERSION:
        raise ArtifactError(
            f"unsupported population format version {version}; this build reads "
            f"file version {_LEGACY_FILE_VERSION} (or bundle version "
            f"{POPULATION_FORMAT_VERSION} directories)"
        )
    return _matchers_from_arrays(data, where)


def _matchers_from_arrays(data: dict, where: str) -> list[HumanMatcher]:
    """Rebuild matchers from the columnar arrays (RAM- or mmap-backed)."""
    n = len(data["ids"]) if np.ndim(data.get("ids")) == 1 else 0
    check_arrays(data, _schema(n), where=where, error=ArtifactError)

    def split(column: str, offsets: str) -> list[np.ndarray]:
        return ragged_decode(
            data[column], data[offsets], n, name=offsets, where=where, error=ArtifactError
        )

    rows, cols, confidences, decision_times = (
        split(f"history_{column}", "history_offsets")
        for column in ("rows", "cols", "confidences", "timestamps")
    )
    xs, ys, codes, event_times = (
        split(f"movement_{column}", "movement_offsets")
        for column in ("x", "y", "codes", "timestamps")
    )
    with decoding(where, ArtifactError):
        check_event_columns(data["movement_codes"], data["movement_timestamps"])
        matchers: list[HumanMatcher] = []
        for index in range(n):
            decisions = [
                Decision(row=int(row), col=int(col), confidence=float(confidence),
                         timestamp=float(timestamp))
                for row, col, confidence, timestamp in zip(
                    rows[index], cols[index], confidences[index], decision_times[index]
                )
            ]
            shape = tuple(int(value) for value in data["history_shapes"][index])
            history = DecisionHistory(decisions, shape=shape)
            screen = tuple(int(value) for value in data["movement_screens"][index])
            # Movement columns were persisted from an EventArray, which is
            # time-sorted by construction: assume_sorted keeps the slices
            # zero-copy (no argsort reshuffle) for mmap-backed bundles.
            movement = MovementMap.from_arrays(
                xs[index], ys[index], codes[index], event_times[index],
                screen=screen, assume_sorted=True, validate=False,
            )
            matchers.append(
                HumanMatcher(
                    matcher_id=str(data["ids"][index]), history=history, movement=movement
                )
            )
    return matchers

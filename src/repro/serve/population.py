"""Scoring-population files: matcher behaviour in a flat columnar encoding.

A *population* carries exactly what the serving path reads from a
:class:`~repro.matching.matcher.HumanMatcher` — the identifier, the full
decision history (pairs, confidences, timestamps, matrix shape) and the
movement map (positions, event types, timestamps, screen size).  Task
schemata, reference matches and self-reported metadata are **not**
stored: they are training/evaluation context, never consumed by feature
extraction, so a loaded population produces bitwise-identical feature
blocks and predictions (its content fingerprints match the originals).

Ragged per-matcher sequences are stored as concatenated arrays plus an
offsets vector, the standard flat encoding for variable-length data.

Two on-disk forms exist:

* **format version 1** — the historical single compressed ``.npz`` file
  (the default of :func:`save_population`, smallest on disk);
* **format version 2** — a bundle *directory* written through the shared
  :mod:`repro.io.bundle` codec when a ``layout`` is requested.  With the
  ``mmap-dir`` layout the columns are memory-mapped on load
  (``np.load(mmap_mode="r")``) and sliced per matcher **zero-copy**: the
  per-matcher movement columns are read-only views into the file-backed
  arrays, so load cost is O(pages-touched) and concurrent scorers share
  physical pages.

Both forms hold identical arrays; :func:`load_population` detects the
form from the path (file vs. directory) and returns matchers with
identical behaviour either way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union
import json
import zipfile

import numpy as np

from repro.io.bundle import (
    BundleLayout,
    arrays_fingerprint,
    atomic_bundle_dir,
    read_arrays,
    read_bundle_manifest,
    write_arrays,
)
from repro.matching.events import EVENT_CODES, N_EVENT_TYPES
from repro.matching.history import Decision, DecisionHistory
from repro.matching.matcher import HumanMatcher
from repro.matching.mouse import MouseEventType, MovementMap
from repro.serve.artifacts import ArtifactError

#: Bundle format identifier written into version-2 population manifests.
POPULATION_FORMAT = "repro-population-bundle"

#: Current population format version (2 = bundle directory through the
#: shared codec; 1 = the historical single compressed ``.npz`` file).
POPULATION_FORMAT_VERSION = 2

#: The single-file format version stamped into (and accepted from) the
#: legacy ``.npz`` form.
_LEGACY_FILE_VERSION = 1

#: Stable event-type codes (the columnar store's codes — identical to the
#: feature cache's fingerprint codes and to all previously written files).
_EVENT_CODES: dict[MouseEventType, int] = {
    kind: EVENT_CODES[kind.value] for kind in MouseEventType
}

_REQUIRED_ARRAYS = (
    "ids",
    "history_offsets",
    "history_rows",
    "history_cols",
    "history_confidences",
    "history_timestamps",
    "history_shapes",
    "movement_offsets",
    "movement_x",
    "movement_y",
    "movement_codes",
    "movement_timestamps",
    "movement_screens",
)


def _population_arrays(matchers: Sequence[HumanMatcher]) -> dict[str, np.ndarray]:
    """Flatten matchers into the columnar arrays both formats store."""
    matchers = list(matchers)
    history_offsets = np.zeros(len(matchers) + 1, dtype=np.int64)
    movement_offsets = np.zeros(len(matchers) + 1, dtype=np.int64)
    rows: list[int] = []
    cols: list[int] = []
    confidences: list[float] = []
    decision_times: list[float] = []
    shapes = np.zeros((len(matchers), 2), dtype=np.int64)
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    codes: list[np.ndarray] = []
    event_times: list[np.ndarray] = []
    screens = np.zeros((len(matchers), 2), dtype=np.int64)

    n_events = 0
    for index, matcher in enumerate(matchers):
        history = matcher.history
        for decision in history:
            rows.append(decision.row)
            cols.append(decision.col)
            confidences.append(decision.confidence)
            decision_times.append(decision.timestamp)
        history_offsets[index + 1] = len(rows)
        shapes[index] = history.shape

        # The movement map is columnar: persist its arrays directly.
        data = matcher.movement.data
        xs.append(data.x)
        ys.append(data.y)
        codes.append(data.codes)
        event_times.append(data.t)
        n_events += len(data)
        movement_offsets[index + 1] = n_events
        screens[index] = matcher.movement.screen

    return {
        "ids": np.array([matcher.matcher_id for matcher in matchers], dtype=np.str_),
        "history_offsets": history_offsets,
        "history_rows": np.array(rows, dtype=np.int64),
        "history_cols": np.array(cols, dtype=np.int64),
        "history_confidences": np.array(confidences, dtype=np.float64),
        "history_timestamps": np.array(decision_times, dtype=np.float64),
        "history_shapes": shapes,
        "movement_offsets": movement_offsets,
        "movement_x": np.concatenate(xs) if xs else np.zeros(0, dtype=np.float64),
        "movement_y": np.concatenate(ys) if ys else np.zeros(0, dtype=np.float64),
        "movement_codes": np.concatenate(codes) if codes else np.zeros(0, dtype=np.int64),
        "movement_timestamps": (
            np.concatenate(event_times) if event_times else np.zeros(0, dtype=np.float64)
        ),
        "movement_screens": screens,
    }


def save_population(
    matchers: Sequence[HumanMatcher],
    path,
    *,
    layout: Optional[Union[str, BundleLayout]] = None,
) -> Path:
    """Write a scoring population.

    Args
    ----
    matchers:
        The matchers to persist (their task / reference context is
        intentionally dropped — see the module docstring).
    path:
        Destination.  Without a ``layout`` this is a single file
        (conventionally ``*.npz``); with one it is a bundle directory.
    layout:
        ``None`` (default) writes the historical format-version-1
        compressed ``.npz`` file.  A :class:`~repro.io.bundle.BundleLayout`
        (or its string value) writes a format-version-2 bundle directory
        through the shared codec — ``mmap-dir`` is the memory-mappable
        serving layout.

    Returns
    -------
    pathlib.Path
        The written file or bundle directory.
    """
    arrays = _population_arrays(matchers)
    destination = Path(path)
    if layout is None:
        destination.parent.mkdir(parents=True, exist_ok=True)
        with open(destination, "wb") as handle:
            np.savez_compressed(
                handle, format_version=np.int64(_LEGACY_FILE_VERSION), **arrays
            )
        return destination
    with atomic_bundle_dir(destination, error=ArtifactError) as staging:
        info = write_arrays(staging, arrays, layout=layout, error=ArtifactError)
        manifest = {
            "format": POPULATION_FORMAT,
            "format_version": POPULATION_FORMAT_VERSION,
            "n_matchers": int(arrays["ids"].shape[0]),
            "arrays": info,
            "fingerprint": arrays_fingerprint(arrays),
        }
        (staging / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
    return destination


def load_population(path, *, mmap: bool = True) -> list[HumanMatcher]:
    """Load a population written by :func:`save_population` (either form).

    Args
    ----
    path:
        A format-version-1 ``.npz`` file or a format-version-2 bundle
        directory.
    mmap:
        For ``mmap-dir`` bundles, memory-map the columns and build each
        matcher's movement map as zero-copy read-only slices of the
        file-backed arrays.  ``False`` forces owned in-RAM copies.

    Returns
    -------
    list[HumanMatcher]
        Matchers with behaviour identical to the saved ones (no task /
        reference context — these populations are for scoring only).

    Raises
    ------
    ArtifactError
        If the path is missing, unreadable, from an unsupported format
        version, fails fingerprint verification (bundle form), or is
        missing required arrays.
    """
    source = Path(path)
    if source.is_dir():
        manifest = read_bundle_manifest(
            source,
            format_name=POPULATION_FORMAT,
            supported_versions=(POPULATION_FORMAT_VERSION,),
            kind="population",
            error=ArtifactError,
        )
        data = read_arrays(source, manifest.get("arrays"), mmap=mmap, error=ArtifactError)
        _check_required(data, source)
        actual = arrays_fingerprint(data)
        if actual != manifest.get("fingerprint"):
            raise ArtifactError(
                f"population bundle {source} failed content-fingerprint verification "
                f"(expected {manifest.get('fingerprint')!r}, computed {actual!r}); "
                "the bundle was modified or corrupted after it was saved"
            )
        return _matchers_from_arrays(data, source)
    if not source.is_file():
        raise ArtifactError(f"population file {source} does not exist")
    try:
        with np.load(source, allow_pickle=False) as npz:
            data = {key: np.array(npz[key]) for key in npz.files}
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as error:
        raise ArtifactError(
            f"population file {source} is unreadable ({error}); it may be truncated"
        ) from error
    if "format_version" not in data:
        raise ArtifactError(
            f"population file {source} is missing arrays ['format_version']; "
            "was it written by save_population()?"
        )
    _check_required(data, source)
    version = int(data["format_version"])
    if version != _LEGACY_FILE_VERSION:
        raise ArtifactError(
            f"unsupported population format version {version}; this build reads "
            f"file version {_LEGACY_FILE_VERSION} (or bundle version "
            f"{POPULATION_FORMAT_VERSION} directories)"
        )
    return _matchers_from_arrays(data, source)


def _check_required(data: dict, source: Path) -> None:
    missing = [key for key in _REQUIRED_ARRAYS if key not in data]
    if missing:
        raise ArtifactError(
            f"population file {source} is missing arrays {missing}; "
            "was it written by save_population()?"
        )


def _matchers_from_arrays(data: dict, source: Path) -> list[HumanMatcher]:
    """Rebuild matchers from the columnar arrays (RAM- or mmap-backed)."""
    matchers: list[HumanMatcher] = []
    ids = data["ids"]
    history_offsets = data["history_offsets"]
    movement_offsets = data["movement_offsets"]
    for index in range(ids.shape[0]):
        h_start, h_end = int(history_offsets[index]), int(history_offsets[index + 1])
        decisions = [
            Decision(
                row=int(data["history_rows"][position]),
                col=int(data["history_cols"][position]),
                confidence=float(data["history_confidences"][position]),
                timestamp=float(data["history_timestamps"][position]),
            )
            for position in range(h_start, h_end)
        ]
        shape = (int(data["history_shapes"][index, 0]), int(data["history_shapes"][index, 1]))
        history = DecisionHistory(decisions, shape=shape)

        m_start, m_end = int(movement_offsets[index]), int(movement_offsets[index + 1])
        codes = data["movement_codes"][m_start:m_end]
        if codes.size and (codes.min() < 0 or codes.max() >= N_EVENT_TYPES):
            bad = int(codes[(codes < 0) | (codes >= N_EVENT_TYPES)][0])
            raise ArtifactError(f"population file {source} has unknown event code {bad}")
        timestamps = data["movement_timestamps"][m_start:m_end]
        if timestamps.size and timestamps.min() < 0:
            raise ArtifactError(f"population file {source} has a negative event timestamp")
        screen = (int(data["movement_screens"][index, 0]), int(data["movement_screens"][index, 1]))
        # Movement columns were persisted from an EventArray, which is
        # time-sorted by construction: assume_sorted keeps the slices
        # zero-copy (no argsort reshuffle) for mmap-backed bundles.
        movement = MovementMap.from_arrays(
            data["movement_x"][m_start:m_end],
            data["movement_y"][m_start:m_end],
            codes,
            timestamps,
            screen=screen,
            assume_sorted=True,
            validate=False,
        )

        matchers.append(
            HumanMatcher(matcher_id=str(ids[index]), history=history, movement=movement)
        )
    return matchers

"""Session-state checkpoints: snapshot/restore a whole :class:`SessionManager`.

A checkpoint is a bundle of the shared :mod:`repro.io.bundle` contract
(the one model artifacts use): a directory holding

* ``manifest.json`` — format name/version, the producing ``repro``
  version, a keyless blake2b **content fingerprint** over the arrays,
  session counters, the manager settings, and (when the service was
  loaded from a bundle) the model bundle's fingerprint: loading against
  a *different* bundle fingerprint is refused, and loading into an
  in-memory service (which has no fingerprint to verify) warns instead
  of proceeding silently;
* ``arrays/`` — every session's exact state as flat arrays, one ``.npy``
  file each: the event buffer (committed and pending columns, arrival
  sequence numbers, watermark scalars), the incremental feature
  maintainers (heat-map grid, type counts, motion-statistics vector),
  the decision history, the dirty flag and the latest scores.  Ragged
  per-session data uses the shared flat-plus-offsets codec.  Restores
  load the columns memory-mapped and copy only what sessions own;
  format-version-1 checkpoints (a single compressed ``arrays.npz``)
  remain readable.

Restore rebuilds sessions whose future behaviour is *identical* to the
saved ones: ``tests/stream/test_checkpoint.py`` asserts that
checkpoint → restore → continue produces bitwise-identical final scores
to an uninterrupted run.  Corruption (truncated arrays, tampered bytes,
missing keys, wrong format version) and hostile content the fingerprint
does not cover (the manager settings and counters, or forged arrays)
raise :class:`CheckpointError` instead of resuming wrong state.
"""

from __future__ import annotations

import shutil
import time
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

import repro
from repro import obs
from repro.core.expert_model import EXPERT_CHARACTERISTICS
from repro.io.bundle import (
    atomic_bundle_dir,
    check_arrays,
    decoding,
    ragged_decode,
    ragged_encode,
    read_bundle,
    read_bundle_manifest,
    write_bundle,
    write_file_atomic,
)
from repro.runtime.faults import ReproRuntimeWarning, active_injector
from repro.matching.events import N_EVENT_TYPES, check_event_columns
from repro.matching.history import Decision
from repro.matching.mouse import MovementMap
from repro.serve.artifacts import ArtifactError
from repro.serve.service import CharacterizationService
from repro.stream.incremental import IncrementalMotionStats, SESSION_HEAT_SHAPE
from repro.stream.ingest import StreamingEventBuffer
from repro.stream.session import MatcherSession, SessionManager

#: Checkpoint format identifier written into every manifest.
CHECKPOINT_FORMAT = "repro-stream-checkpoint"

#: Current checkpoint format version (2 = ``arrays/`` directory; 1 = the
#: historical compressed ``arrays.npz``).
CHECKPOINT_FORMAT_VERSION = 2

#: Format versions load_checkpoint / read_checkpoint_manifest accept.
SUPPORTED_CHECKPOINT_VERSIONS = (1, 2)

#: Buffer column groups persisted per session (matching
#: ``StreamingEventBuffer.state()`` keys).
_BUFFER_KEYS = (
    "committed_x", "committed_y", "committed_codes", "committed_t",
    "pending_x", "pending_y", "pending_codes", "pending_t", "pending_seq",
)

#: The integer-valued buffer columns; the rest are float64.
_INT_BUFFER_KEYS = ("committed_codes", "pending_codes", "pending_seq")

#: Width of the ``StreamingEventBuffer.state()["scalars"]`` vector.
_BUFFER_SCALARS_WIDTH = 5

#: Width of the ``IncrementalMotionStats.state()`` vector.
_MOTION_STATE_WIDTH = 18

#: Number of expert characteristics in the stored score rows.
_N_LABELS = len(EXPERT_CHARACTERISTICS)


class CheckpointError(ArtifactError):
    """Raised when a checkpoint cannot be written or restored."""


def _schema(n: int) -> dict:
    """``check_arrays`` schema of an ``n``-session checkpoint."""
    schema = {
        "ids": ("U", (n,)),
        "buffer_scalars": ("f", (n, _BUFFER_SCALARS_WIDTH)),
        "decisions": ("f", (None,)),
        "decision_offsets": ("iu", (n + 1,)),
        "heat_grids": ("f", (n, *SESSION_HEAT_SHAPE)),
        "type_counts": ("iu", (n, N_EVENT_TYPES)),
        "motion_states": ("f", (n, _MOTION_STATE_WIDTH)),
        "shapes": ("iu", (n, 2)),
        "screens": ("iu", (n, 2)),
        "flags": ("f", (n, 3)),
        "activity": ("f", (n,)),
        "labels": ("iu", (n, _N_LABELS)),
        "probabilities": ("f", (n, _N_LABELS)),
    }
    for key in _BUFFER_KEYS:
        schema[key] = ("iu" if key in _INT_BUFFER_KEYS else "f", (None,))
        schema[f"{key}_offsets"] = ("iu", (n + 1,))
    return schema


def save_checkpoint(
    manager: SessionManager,
    path,
    *,
    workload: Optional[dict] = None,
) -> Path:
    """Write the manager's complete session state as a checkpoint bundle.

    The scoring model itself is **not** stored (persist it once with
    :func:`repro.serve.save_model`); the manifest records the model
    bundle's fingerprint when the service was loaded from one, and
    :func:`load_checkpoint` refuses to resume against a different model.

    Args
    ----
    manager:
        The session manager to snapshot.
    path:
        Checkpoint bundle directory to create.
    workload:
        Optional provenance of the ingested workload (adapter
        ``source``, ``fingerprint``, ``trace_version``); recorded
        verbatim in the manifest so a later ``--resume`` can detect
        that it is being replayed against a different trace.

    Returns
    -------
    pathlib.Path
        The checkpoint bundle directory.
    """
    sessions = [manager.session(session_id) for session_id in manager.session_ids()]
    arrays: dict[str, np.ndarray] = {}

    buffer_chunks: dict[str, list[np.ndarray]] = {key: [] for key in _BUFFER_KEYS}
    buffer_scalars: list[np.ndarray] = []
    decision_chunks: list[np.ndarray] = []
    heat_grids = np.zeros((len(sessions), *SESSION_HEAT_SHAPE), dtype=np.float64)
    type_counts = np.zeros((len(sessions), N_EVENT_TYPES), dtype=np.int64)
    motion_states = np.zeros((len(sessions), _MOTION_STATE_WIDTH), dtype=np.float64)
    shapes = np.zeros((len(sessions), 2), dtype=np.int64)
    screens = np.zeros((len(sessions), 2), dtype=np.int64)
    flags = np.zeros((len(sessions), 3), dtype=np.float64)  # dirty, scored, n_char
    activity = np.zeros(len(sessions), dtype=np.float64)
    labels = np.zeros((len(sessions), _N_LABELS), dtype=np.int64)
    probabilities = np.zeros((len(sessions), _N_LABELS), dtype=np.float64)

    for index, session in enumerate(sessions):
        # Fold before snapshotting the buffer: its state includes the
        # drain cursor, so a tail folded after it would be folded again
        # on restore.
        features = session.features
        state = session.buffer.state()
        for key in _BUFFER_KEYS:
            buffer_chunks[key].append(state[key])
        buffer_scalars.append(state["scalars"])
        decision_chunks.append(
            np.array(
                [(d.row, d.col, d.confidence, d.timestamp) for d in session.decisions],
                dtype=np.float64,
            ).reshape(-1)
        )
        heat_grids[index] = features.heat.counts
        type_counts[index] = features.type_counts.counts
        motion_states[index] = features.motion.state()
        shapes[index] = session.shape
        screens[index] = session.screen
        flags[index, 0] = 1.0 if session.dirty else 0.0
        flags[index, 1] = 1.0 if session.last_labels is not None else 0.0
        flags[index, 2] = session.n_characterizations
        activity[index] = session.last_activity
        if session.last_labels is not None:
            labels[index] = session.last_labels
            probabilities[index] = session.last_probabilities

    for key in _BUFFER_KEYS:
        dtype = np.int64 if key in _INT_BUFFER_KEYS else np.float64
        arrays[key], arrays[f"{key}_offsets"] = ragged_encode(buffer_chunks[key], dtype)
    arrays["decisions"], arrays["decision_offsets"] = ragged_encode(
        decision_chunks, np.float64
    )
    arrays["buffer_scalars"] = (
        np.vstack(buffer_scalars)
        if buffer_scalars
        else np.zeros((0, _BUFFER_SCALARS_WIDTH))
    )
    arrays["ids"] = np.array(
        [session.session_id for session in sessions], dtype=np.str_
    )
    arrays["heat_grids"] = heat_grids
    arrays["type_counts"] = type_counts
    arrays["motion_states"] = motion_states
    arrays["shapes"] = shapes
    arrays["screens"] = screens
    arrays["flags"] = flags
    arrays["activity"] = activity
    arrays["labels"] = labels
    arrays["probabilities"] = probabilities

    bundle = Path(path)
    injector = active_injector()
    with atomic_bundle_dir(bundle, error=CheckpointError) as staging:
        bundle_info = getattr(manager.service, "_bundle_info", None) or {}
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "repro_version": repro.__version__,
            "n_sessions": len(sessions),
            "n_evicted": manager.n_evicted,
            "manager": {
                "max_sessions": manager.max_sessions,
                "idle_timeout": manager.idle_timeout,
                "reorder_window": manager.reorder_window,
                "screen": list(manager.screen),
            },
            "model_fingerprint": bundle_info.get("fingerprint"),
        }
        if workload is not None:
            manifest["workload"] = dict(workload)
        write_bundle(staging, manifest, arrays, error=CheckpointError)
        # The checkpoint.write seam fires after the staging tree is fully
        # written but before publication — the injected crash a torn
        # write would have been.  The atomic context discards the staging
        # dir, so the previous checkpoint (if any) stays intact.
        if injector is not None:
            injector.check(
                "checkpoint.write", key=bundle.name,
                message=(
                    f"injected crash while writing checkpoint {bundle.name!r} "
                    "(before the publishing rename)"
                ),
            )
    return bundle


def read_checkpoint_manifest(path) -> dict:
    """Read and structurally validate a checkpoint's ``manifest.json``.

    Raises
    ------
    CheckpointError
        If the bundle or manifest is missing/unreadable, of the wrong
        format name, or an unsupported format version.
    """
    return read_bundle_manifest(
        path,
        format_name=CHECKPOINT_FORMAT,
        supported_versions=SUPPORTED_CHECKPOINT_VERSIONS,
        kind="checkpoint",
        error=CheckpointError,
    )


def load_checkpoint(
    path,
    service: CharacterizationService,
    *,
    on_evict=None,
    quarantine=None,
) -> SessionManager:
    """Restore a :class:`SessionManager` from a checkpoint bundle.

    Args
    ----
    path:
        The checkpoint bundle directory.
    service:
        The scoring service to attach.  When both the checkpoint and the
        service carry a model-bundle fingerprint they must match.
    on_evict:
        Eviction callback for the restored manager (callbacks are not
        serializable, so they are re-attached explicitly).
    quarantine:
        A :class:`~repro.stream.quarantine.QuarantineLog` to attach to
        the restored manager and sessions (logs are runtime state, not
        checkpoint payload — counters restart with the new log).

    Raises
    ------
    CheckpointError
        On missing/corrupt bundles, fingerprint mismatches (content or
        model), or unsupported versions.
    """
    bundle = Path(path)
    injector = active_injector()
    if injector is not None and injector.fires("checkpoint.read", key=bundle.name):
        raise CheckpointError(
            f"injected read failure for checkpoint {bundle.name!r} "
            "(fault seam 'checkpoint.read')"
        )
    # The arrays are read-only memory maps of the checkpoint files: every
    # session-owned buffer below copies out of them, so the restored
    # manager never aliases the checkpoint files.
    manifest, arrays = read_bundle(
        bundle,
        format_name=CHECKPOINT_FORMAT,
        supported_versions=SUPPORTED_CHECKPOINT_VERSIONS,
        kind="checkpoint",
        error=CheckpointError,
    )

    saved_model = manifest.get("model_fingerprint")
    bundle_info = getattr(service, "_bundle_info", None) or {}
    serving_model = bundle_info.get("fingerprint")
    if saved_model and serving_model and saved_model != serving_model:
        raise CheckpointError(
            f"checkpoint {bundle} was taken against model fingerprint "
            f"{saved_model!r}, but the service serves {serving_model!r}; "
            "resume with the matching model bundle"
        )
    if saved_model and not serving_model:
        # An in-memory service carries no fingerprint, so the binding
        # cannot be verified — resume proceeds, but not silently.
        warnings.warn(
            ReproRuntimeWarning(
                f"checkpoint {bundle} is bound to model fingerprint {saved_model!r}, "
                "but the service has no bundle fingerprint to verify against "
                "(in-memory model); scores may differ from the original run"
            ),
            stacklevel=2,
        )

    # The manager block and the counters are not covered by the content
    # fingerprint, and forged arrays can be re-signed: whatever the
    # constructors below reject surfaces as CheckpointError.
    where = f"checkpoint {bundle}"
    with decoding(where, CheckpointError):
        settings = manifest.get("manager", {})
        width, height = (
            int(value) for value in settings.get("screen", MovementMap.DEFAULT_SCREEN)
        )
        manager = SessionManager(
            service,
            max_sessions=settings.get("max_sessions"),
            idle_timeout=settings.get("idle_timeout"),
            reorder_window=float(settings.get("reorder_window", 0.0)),
            screen=(width, height),
            on_evict=on_evict,
            quarantine=quarantine,
        )
        manager.n_evicted = int(manifest.get("n_evicted", 0))
        n_sessions = int(manifest.get("n_sessions", 0))

        check_arrays(arrays, _schema(n_sessions), where=where, error=CheckpointError)
        columns = {
            key: ragged_decode(
                arrays[key], arrays[f"{key}_offsets"], n_sessions,
                name=f"{key}_offsets", where=where, error=CheckpointError,
            )
            for key in _BUFFER_KEYS
        }
        decisions = ragged_decode(
            arrays["decisions"], arrays["decision_offsets"], n_sessions,
            name="decision_offsets", where=where, error=CheckpointError,
        )
        for stage in ("committed", "pending"):
            check_event_columns(arrays[f"{stage}_codes"], arrays[f"{stage}_t"])

        for index in range(n_sessions):
            shape = (int(arrays["shapes"][index, 0]), int(arrays["shapes"][index, 1]))
            screen = (int(arrays["screens"][index, 0]), int(arrays["screens"][index, 1]))
            session = MatcherSession(
                str(arrays["ids"][index]), shape, screen=screen,
                reorder_window=manager.reorder_window,
                quarantine=quarantine,
            )

            state = {key: columns[key][index] for key in _BUFFER_KEYS}
            state["scalars"] = arrays["buffer_scalars"][index]
            session.buffer = StreamingEventBuffer.from_state(state)

            # Write the saved (folded) state directly: reading the features
            # property here would fold against the restored drain cursor.
            features = session._features
            features.heat.counts = arrays["heat_grids"][index].copy()
            features.type_counts.counts = arrays["type_counts"][index].copy()
            features.motion = IncrementalMotionStats.from_state(
                arrays["motion_states"][index]
            )

            session.decisions = [
                Decision(
                    row=int(entry[0]), col=int(entry[1]),
                    confidence=float(entry[2]), timestamp=float(entry[3]),
                )
                for entry in decisions[index].reshape(-1, 4)
            ]
            session._history = None

            session.dirty = bool(arrays["flags"][index, 0])
            session.n_characterizations = int(arrays["flags"][index, 2])
            session.last_activity = float(arrays["activity"][index])
            if arrays["flags"][index, 1]:
                session.last_labels = arrays["labels"][index].copy()
                session.last_probabilities = arrays["probabilities"][index].copy()

            manager._sessions[session.session_id] = session
    return manager


# --------------------------------------------------------------------- #
# Retained checkpoint store
# --------------------------------------------------------------------- #

#: Name of the pointer file recording the last fully published checkpoint.
LATEST_GOOD_NAME = "latest-good"

#: Prefix of numbered checkpoint directories inside a store.
_CHECKPOINT_PREFIX = "ckpt-"


class CheckpointStore:
    """N-deep retention of atomic checkpoints with a ``latest-good`` pointer.

    A store is a directory of numbered checkpoint bundles
    (``ckpt-000001``, ``ckpt-000002``, …) plus a ``latest-good`` pointer
    file naming the last fully published one.  :meth:`save` writes each
    checkpoint through the atomic protocol (stage + fsync + rename),
    updates the pointer with ``os.replace`` and prunes beyond the
    retention depth — so the pointer never names a torn bundle.
    :meth:`restore` starts at the pointer and falls back, newest first,
    to the newest checkpoint that passes fingerprint verification,
    warning (:class:`~repro.runtime.faults.ReproRuntimeWarning`) about
    each one it skips.

    Parameters
    ----------
    root:
        The store directory (created if missing).
    keep:
        Retention depth; older checkpoints are pruned after each save.
    """

    def __init__(self, root, *, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.root = Path(root)
        self.keep = int(keep)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- listing ------------------------------------------------------- #

    def checkpoints(self) -> list[Path]:
        """Checkpoint directories present in the store, oldest first."""
        return sorted(
            entry
            for entry in self.root.iterdir()
            if entry.is_dir() and entry.name.startswith(_CHECKPOINT_PREFIX)
        )

    def latest_good(self) -> Optional[Path]:
        """The checkpoint named by the pointer (``None`` when unset/stale).

        The pointer is untrusted input: one that cannot be read or
        decoded, or that names anything but one of this store's own
        checkpoint directories (``../x``, a file, a missing bundle), is
        treated as unset, so :meth:`restore` falls back.
        """
        try:
            name = (self.root / LATEST_GOOD_NAME).read_text(encoding="utf-8").strip()
        except (OSError, ValueError):  # ValueError: not UTF-8
            return None
        return next((entry for entry in self.checkpoints() if entry.name == name), None)

    def _next_name(self) -> str:
        existing = self.checkpoints()
        if not existing:
            return f"{_CHECKPOINT_PREFIX}000001"
        newest = existing[-1].name[len(_CHECKPOINT_PREFIX):]
        number = int(newest) + 1 if newest.isdigit() else len(existing) + 1
        return f"{_CHECKPOINT_PREFIX}{number:06d}"

    # -- writing ------------------------------------------------------- #

    def save(self, manager: SessionManager) -> Path:
        """Atomically write the next checkpoint, advance the pointer, prune.

        A failed write (crash or injected ``checkpoint.write`` fault)
        leaves the store exactly as it was: no new directory, pointer
        untouched.
        """
        started = time.perf_counter()
        bundle = self.root / self._next_name()
        with obs.trace_span("checkpoint.save", bundle=bundle.name):
            save_checkpoint(manager, bundle)
            write_file_atomic(self.root / LATEST_GOOD_NAME, bundle.name + "\n")
            self.prune()
        if obs.obs_enabled():
            obs.histogram(
                "repro_checkpoint_save_seconds",
                "Checkpoint publish wall-clock (write + pointer + prune).",
            ).observe(time.perf_counter() - started)
            obs.counter("repro_checkpoint_saves_total", "Checkpoints published.").inc()
        return bundle

    def prune(self) -> list[Path]:
        """Drop checkpoints beyond the retention depth (never the pointee)."""
        keep_names = {entry.name for entry in self.checkpoints()[-self.keep:]}
        pointee = self.latest_good()
        if pointee is not None:
            keep_names.add(pointee.name)
        removed = []
        for entry in self.checkpoints():
            if entry.name not in keep_names:
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(entry)
        return removed

    # -- restoring ----------------------------------------------------- #

    def restore(
        self,
        service: CharacterizationService,
        *,
        on_evict=None,
        quarantine=None,
    ) -> SessionManager:
        """Restore from the newest verifiable checkpoint.

        Tries the ``latest-good`` pointee first, then every remaining
        checkpoint newest-to-oldest.  A candidate that fails to load —
        torn bundle, corrupt arrays, fingerprint mismatch, injected
        ``checkpoint.read`` fault — is skipped with a
        :class:`~repro.runtime.faults.ReproRuntimeWarning`; the first
        one that verifies wins.

        Raises
        ------
        CheckpointError
            When the store holds no loadable checkpoint at all.
        """
        candidates: list[Path] = []
        pointee = self.latest_good()
        if pointee is not None:
            candidates.append(pointee)
        for entry in reversed(self.checkpoints()):
            if pointee is None or entry.name != pointee.name:
                candidates.append(entry)
        if not candidates:
            raise CheckpointError(f"checkpoint store {self.root} is empty")
        started = time.perf_counter()
        failures: list[str] = []
        for candidate in candidates:
            try:
                with obs.trace_span("checkpoint.restore", bundle=candidate.name):
                    manager = load_checkpoint(
                        candidate, service, on_evict=on_evict, quarantine=quarantine
                    )
            except CheckpointError as error:
                failures.append(f"{candidate.name}: {error}")
                if obs.obs_enabled():
                    obs.counter(
                        "repro_checkpoint_fallbacks_total",
                        "Unrestorable checkpoints skipped during restore.",
                    ).inc()
                warnings.warn(
                    ReproRuntimeWarning(
                        f"checkpoint {candidate.name!r} is not restorable "
                        f"({error}); falling back to the previous checkpoint"
                    ),
                    stacklevel=2,
                )
                continue
            if obs.obs_enabled():
                obs.histogram(
                    "repro_checkpoint_restore_seconds",
                    "Checkpoint restore wall-clock (including skipped candidates).",
                ).observe(time.perf_counter() - started)
            return manager
        summary = "; ".join(failures)
        raise CheckpointError(
            f"no restorable checkpoint in {self.root} "
            f"({len(failures)} candidate(s) failed: {summary})"
        )

    def __repr__(self) -> str:
        pointee = self.latest_good()
        return (
            f"CheckpointStore(root={str(self.root)!r}, "
            f"checkpoints={len(self.checkpoints())}, keep={self.keep}, "
            f"latest_good={pointee.name if pointee else None!r})"
        )

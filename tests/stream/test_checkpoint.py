"""Checkpoint bundles: exact restore, resume equivalence, corruption errors."""

import json

import numpy as np
import pytest

from repro.io.bundle import read_arrays
from repro.serve.artifacts import ArtifactError, save_model
from repro.serve.service import CharacterizationService
from repro.stream import (
    CheckpointError,
    SessionManager,
    load_checkpoint,
    read_checkpoint_manifest,
    save_checkpoint,
)
from repro.stream.cli import _replay

from tests.stream.conftest import jittered, random_trace


@pytest.fixture
def half_replayed(stream_service, workload):
    """A manager with every trace half streamed (some sessions scored)."""
    manager = SessionManager(stream_service, reorder_window=1.0, idle_timeout=500.0)
    _replay(
        manager, workload, steps=6, report_every=3, runtime=None, chunk_size=4,
        stop_after=3,
    )
    return manager


class TestRoundTrip:
    def test_restore_is_exact(self, half_replayed, stream_service, tmp_path):
        bundle = save_checkpoint(half_replayed, tmp_path / "ckpt")
        manifest = read_checkpoint_manifest(bundle)
        assert manifest["n_sessions"] == len(half_replayed)
        restored = load_checkpoint(bundle, stream_service)
        assert restored.session_ids() == half_replayed.session_ids()
        assert restored.max_sessions == half_replayed.max_sessions
        assert restored.idle_timeout == half_replayed.idle_timeout
        assert restored.reorder_window == half_replayed.reorder_window
        for session_id in half_replayed.session_ids():
            original = half_replayed.session(session_id)
            copy = restored.session(session_id)
            assert copy.shape == original.shape
            assert copy.screen == original.screen
            assert copy.dirty == original.dirty
            assert copy.last_activity == original.last_activity
            assert copy.n_characterizations == original.n_characterizations
            assert copy.decisions == original.decisions
            for column in ("x", "y", "codes", "t"):
                np.testing.assert_array_equal(
                    getattr(copy.buffer.snapshot(), column),
                    getattr(original.buffer.snapshot(), column),
                )
            assert copy.buffer.n_pending == original.buffer.n_pending
            np.testing.assert_array_equal(
                copy.features.heat.counts, original.features.heat.counts
            )
            np.testing.assert_array_equal(
                copy.features.type_counts.counts, original.features.type_counts.counts
            )
            assert copy.features.motion.state().tolist() == (
                original.features.motion.state().tolist()
            )
            if original.last_labels is None:
                assert copy.last_labels is None
            else:
                np.testing.assert_array_equal(copy.last_labels, original.last_labels)
                np.testing.assert_array_equal(
                    copy.last_probabilities, original.last_probabilities
                )

    def test_resume_matches_uninterrupted_run_bitwise(
        self, stream_service, workload, tmp_path
    ):
        """The acceptance property: checkpoint -> restore -> continue == one run."""
        uninterrupted = SessionManager(stream_service)
        _replay(uninterrupted, workload, steps=6, report_every=3, runtime=None, chunk_size=4)

        first_half = SessionManager(stream_service)
        _replay(
            first_half, workload, steps=6, report_every=3, runtime=None, chunk_size=4,
            stop_after=3,
        )
        bundle = save_checkpoint(first_half, tmp_path / "half")
        resumed = load_checkpoint(bundle, stream_service)
        _replay(resumed, workload, steps=6, report_every=3, runtime=None, chunk_size=4)

        expected = uninterrupted.scores()
        actual = resumed.scores()
        assert set(expected) == set(actual) == {m.matcher_id for m in workload}
        for session_id, entry in expected.items():
            np.testing.assert_array_equal(actual[session_id]["labels"], entry["labels"])
            np.testing.assert_array_equal(
                actual[session_id]["probabilities"], entry["probabilities"]
            )

    @pytest.mark.parametrize("layout", ["npz-compressed", "npz", "mmap-dir"])
    def test_every_layout_round_trips(
        self, half_replayed, stream_service, tmp_path, layout
    ):
        """All three array layouts restore sessions exactly (v2 bundles)."""
        bundle = save_checkpoint(half_replayed, tmp_path / layout, layout=layout)
        manifest = read_checkpoint_manifest(bundle)
        assert manifest["arrays"]["layout"] == layout
        restored = load_checkpoint(bundle, stream_service)
        assert restored.session_ids() == half_replayed.session_ids()
        for session_id in half_replayed.session_ids():
            original = half_replayed.session(session_id)
            copy = restored.session(session_id)
            np.testing.assert_array_equal(
                copy.features.heat.counts, original.features.heat.counts
            )
            for column in ("x", "y", "codes", "t"):
                np.testing.assert_array_equal(
                    getattr(copy.buffer.snapshot(), column),
                    getattr(original.buffer.snapshot(), column),
                )

    def test_empty_manager_round_trips(self, stream_service, tmp_path):
        bundle = save_checkpoint(SessionManager(stream_service), tmp_path / "empty")
        restored = load_checkpoint(bundle, stream_service)
        assert len(restored) == 0


def _chunks(n, rng):
    """Random arrival chunk bounds covering ``[0, n)``."""
    bounds = [0]
    while bounds[-1] < n:
        bounds.append(min(n, bounds[-1] + int(rng.integers(1, 12))))
    return list(zip(bounds[:-1], bounds[1:]))


class TestFoldOrder:
    """Features fold on read, so a checkpoint may be taken with committed
    events not yet folded: save must fold before it snapshots the buffer's
    drain cursor, and restore must not fold again."""

    @pytest.mark.parametrize("reorder", [0.0, 4.0])
    def test_resume_from_unfolded_tail_matches_uninterrupted_session(
        self, stream_service, tmp_path, reorder
    ):
        rng = np.random.default_rng(int(reorder) + 41)
        columns = random_trace(rng, 300)
        if reorder:
            columns = jittered(columns, rng, lag=reorder)
        chunks = _chunks(300, rng)
        half = len(chunks) // 2

        interrupted = SessionManager(stream_service, reorder_window=reorder)
        uninterrupted = SessionManager(stream_service, reorder_window=reorder)
        for manager in (interrupted, uninterrupted):
            manager.open("s", (6, 6))
        # Fold part of the stream, then leave a committed tail unfolded.
        for lo, hi in chunks[: half // 2]:
            interrupted.ingest_events("s", *(column[lo:hi] for column in columns))
        interrupted.session("s").report()
        for lo, hi in chunks[half // 2 : half]:
            interrupted.ingest_events("s", *(column[lo:hi] for column in columns))
        buffer = interrupted.session("s").buffer
        assert buffer._drained < buffer.n_committed  # an unfolded tail exists

        bundle = save_checkpoint(interrupted, tmp_path / "mid", layout="npz")
        resumed = load_checkpoint(bundle, stream_service)
        for lo, hi in chunks[half:]:
            resumed.ingest_events("s", *(column[lo:hi] for column in columns))
        for lo, hi in chunks:
            uninterrupted.ingest_events("s", *(column[lo:hi] for column in columns))
        for manager in (resumed, uninterrupted):
            manager.session("s").buffer.flush()

        ours = resumed.session("s").features
        theirs = uninterrupted.session("s").features
        np.testing.assert_array_equal(ours.heat.counts, theirs.heat.counts)
        np.testing.assert_array_equal(ours.type_counts.counts, theirs.type_counts.counts)
        assert ours.motion.count == theirs.motion.count == 300
        assert ours.motion.duration == theirs.motion.duration
        assert ours.motion.path_length == pytest.approx(
            theirs.motion.path_length, rel=1e-12, abs=1e-9
        )
        assert ours.motion.mean_position() == pytest.approx(
            theirs.motion.mean_position(), rel=1e-12, abs=1e-9
        )
        assert ours.motion.x_summary.std == pytest.approx(
            theirs.motion.x_summary.std, rel=1e-9, abs=1e-9
        )
        assert ours.motion.y_summary.std == pytest.approx(
            theirs.motion.y_summary.std, rel=1e-9, abs=1e-9
        )

    @pytest.mark.parametrize("reorder", [0.0, 4.0])
    def test_save_restore_save_writes_identical_arrays(
        self, stream_service, tmp_path, reorder
    ):
        rng = np.random.default_rng(int(reorder) + 7)
        columns = random_trace(rng, 120)
        if reorder:
            columns = jittered(columns, rng, lag=reorder)
        manager = SessionManager(stream_service, reorder_window=reorder)
        manager.open("s", (6, 6))
        for lo, hi in _chunks(120, rng):
            manager.ingest_events("s", *(column[lo:hi] for column in columns))
        first = save_checkpoint(manager, tmp_path / "first", layout="npz")
        second = save_checkpoint(
            load_checkpoint(first, stream_service), tmp_path / "second", layout="npz"
        )
        assert (
            read_checkpoint_manifest(first)["fingerprint"]
            == read_checkpoint_manifest(second)["fingerprint"]
        )
        arrays_first = read_arrays(first, read_checkpoint_manifest(first)["arrays"])
        arrays_second = read_arrays(second, read_checkpoint_manifest(second)["arrays"])
        assert arrays_first.keys() == arrays_second.keys()
        for key, array in arrays_first.items():
            np.testing.assert_array_equal(arrays_second[key], array, err_msg=key)


class TestModelBinding:
    def test_mismatched_model_fingerprint_rejected(
        self, half_replayed, stream_model, workload, tmp_path
    ):
        """A checkpoint never silently resumes against a different model."""
        bundle_dir = save_model(stream_model, tmp_path / "model")
        bundled_service = CharacterizationService.from_bundle(bundle_dir)
        manager = SessionManager(bundled_service)
        matcher = workload[0]
        manager.open(matcher.matcher_id, matcher.history.shape)
        checkpoint = save_checkpoint(manager, tmp_path / "bound")
        assert read_checkpoint_manifest(checkpoint)["model_fingerprint"]
        # Same bundle: loads fine.
        load_checkpoint(checkpoint, bundled_service)
        # Tampered service fingerprint: rejected.
        impostor = CharacterizationService.from_bundle(bundle_dir)
        impostor._bundle_info["fingerprint"] = "0" * 32
        with pytest.raises(CheckpointError, match="model fingerprint"):
            load_checkpoint(checkpoint, impostor)
        # In-memory service (no fingerprint): accepted, but with a warning
        # that the binding could not be verified.
        with pytest.warns(UserWarning, match="no bundle fingerprint"):
            load_checkpoint(checkpoint, half_replayed.service)


class TestCorruption:
    def test_missing_bundle(self, stream_service, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(tmp_path / "nope", stream_service)

    def test_wrong_format_and_version(self, half_replayed, stream_service, tmp_path):
        bundle = save_checkpoint(half_replayed, tmp_path / "ckpt")
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bundle, stream_service)
        manifest["format"] = "something-else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(bundle, stream_service)
        manifest_path.write_text("{not json")
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(bundle, stream_service)

    def test_truncated_arrays(self, half_replayed, stream_service, tmp_path):
        bundle = save_checkpoint(half_replayed, tmp_path / "ckpt", layout="npz-compressed")
        arrays_path = bundle / "arrays.npz"
        arrays_path.write_bytes(arrays_path.read_bytes()[: arrays_path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(bundle, stream_service)

    def test_tampered_arrays_fail_fingerprint(
        self, half_replayed, stream_service, tmp_path
    ):
        bundle = save_checkpoint(half_replayed, tmp_path / "ckpt", layout="npz-compressed")
        with np.load(bundle / "arrays.npz", allow_pickle=False) as npz:
            arrays = {key: np.array(npz[key]) for key in npz.files}
        arrays["activity"] = arrays["activity"] + 1.0
        with open(bundle / "arrays.npz", "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(bundle, stream_service)

    def test_checkpoint_error_is_an_artifact_error(self):
        assert issubclass(CheckpointError, ArtifactError)

"""Hostile bundle manifests: every bundle reader raises its own typed error.

The three readers of the shared bundle contract — ``load_model``,
``load_checkpoint`` and ``load_population`` — each take a valid bundle
whose ``manifest.json`` an attacker (or a bad disk) has rewritten.  Each
payload must surface as the reader's documented error class, never as a
bare ``UnicodeDecodeError`` / ``AttributeError`` / ``TypeError`` /
``RecursionError``, and a manifest naming files outside the bundle
directory must be refused rather than followed.  The checkpoint fields
the content fingerprint does not cover (the ``manager`` block and the
session counters) get the same treatment, and a retained store falls
back past a checkpoint that fails them.  A store's ``latest-good``
pointer is untrusted too: one that is not UTF-8 or names anything but
the store's own checkpoints is treated as unset.
"""

import json

import pytest

from repro.runtime.faults import ReproRuntimeWarning
from repro.stream import (
    CheckpointError,
    CheckpointStore,
    SessionManager,
    load_checkpoint,
    save_checkpoint,
)


def _first_file(info):
    key = sorted(info["files"])[0]
    return key, info["files"][key]


def _escape_file(bundle, manifest):
    """Move one array file next to the bundle and point the manifest at it."""
    info = manifest["arrays"]
    key, name = _first_file(info)
    outside = bundle.parent / f"{bundle.name}-outside.npy"
    (bundle / info["dir"] / name).rename(outside)
    info["files"][key] = f"../../{outside.name}"
    return manifest


def _escape_dir(bundle, manifest):
    """Move the array directory next to the bundle and point the manifest at it."""
    info = manifest["arrays"]
    outside = bundle.parent / f"{bundle.name}-arrays"
    (bundle / info["dir"]).rename(outside)
    info["dir"] = f"../{outside.name}"
    return manifest


def _nested_file(bundle, manifest):
    """Move one array file into a subdirectory of the array directory."""
    info = manifest["arrays"]
    key, name = _first_file(info)
    directory = bundle / info["dir"]
    (directory / "nested").mkdir()
    (directory / name).rename(directory / "nested" / name)
    info["files"][key] = f"nested/{name}"
    return manifest


def _set_arrays(field, value):
    def mutate(bundle, manifest):
        info = manifest["arrays"]
        if field == "files":
            info["files"][_first_file(info)[0]] = value
        else:
            info[field] = value
        return manifest

    return mutate


def _rename_file(rename):
    """Point one ``arrays.files`` entry at ``rename(original name)``."""

    def mutate(bundle, manifest):
        info = manifest["arrays"]
        key, name = _first_file(info)
        info["files"][key] = rename(name)
        return manifest

    return mutate


def _replace_files_map(bundle, manifest):
    """Replace the ``arrays.files`` key index with a list."""
    manifest["arrays"]["files"] = sorted(manifest["arrays"]["files"].values())
    return manifest


def _replace_arrays(bundle, manifest):
    """Replace the whole ``arrays`` entry with a non-object."""
    manifest["arrays"] = [1]
    return manifest


#: name -> (bundle dir, parsed manifest) -> replacement manifest bytes/object.
PAYLOADS = {
    "not-utf8": lambda bundle, manifest: b"\xff\xfe{",
    "json-list": lambda bundle, manifest: [1, 2],
    "json-string": lambda bundle, manifest: "x",
    "json-null": lambda bundle, manifest: None,
    "deep-nesting": lambda bundle, manifest: b"[" * 200_000,
    "dir-not-string": _set_arrays("dir", 5),
    "file-not-string": _set_arrays("files", 7),
    "unknown-layout": _set_arrays("layout", "tar"),
    "file-escapes-bundle": _escape_file,
    "dir-escapes-bundle": _escape_dir,
    "file-in-subdirectory": _nested_file,
    "file-backslash": _rename_file(lambda name: f"nested\\{name}"),
    "file-nul": _rename_file(lambda name: f"{name}\0"),
    "dir-dot": _set_arrays("dir", "."),
    "files-not-map": _replace_files_map,
    "arrays-not-object": _replace_arrays,
}


@pytest.mark.parametrize("payload", sorted(PAYLOADS))
@pytest.mark.parametrize("reader", ["model", "checkpoint", "population"])
def test_hostile_manifest_raises_the_readers_error(
    bundle_formats, reader, payload, tmp_path
):
    write, read, error = bundle_formats[reader]
    bundle = tmp_path / "bundle"
    write(bundle)
    manifest_path = bundle / "manifest.json"
    hostile = PAYLOADS[payload](bundle, json.loads(manifest_path.read_text()))
    if isinstance(hostile, bytes):
        manifest_path.write_bytes(hostile)
    else:
        manifest_path.write_text(json.dumps(hostile))
    with pytest.raises(error) as raised:
        read(bundle)
    assert raised.type is error


def _set(*path):
    """Set the checkpoint manifest field at ``path`` to the last argument."""
    *keys, field, value = path

    def mutate(manifest):
        target = manifest
        for key in keys:
            target = target[key]
        target[field] = value

    return mutate


#: Checkpoint manifest fields outside the content fingerprint.
UNSIGNED_FIELDS = {
    "manager-not-object": _set("manager", []),
    "screen-not-pair": _set("manager", "screen", 5),
    "screen-not-numbers": _set("manager", "screen", ["a", "b"]),
    "max-sessions-string": _set("manager", "max_sessions", "x"),
    "reorder-window-string": _set("manager", "reorder_window", "abc"),
    "reorder-window-negative": _set("manager", "reorder_window", -1),
    "n-sessions-string": _set("n_sessions", "x"),
    "n-sessions-wrong": _set("n_sessions", 1),
    "n-evicted-list": _set("n_evicted", [1]),
}


def _rewrite_manifest(bundle, mutate):
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("field", sorted(UNSIGNED_FIELDS))
def test_unsigned_checkpoint_fields_raise_checkpoint_error(
    replayed_manager, stream_service, field, tmp_path
):
    bundle = save_checkpoint(replayed_manager, tmp_path / "ckpt")
    _rewrite_manifest(bundle, UNSIGNED_FIELDS[field])
    with pytest.raises(CheckpointError) as raised:
        load_checkpoint(bundle, stream_service)
    assert raised.type is CheckpointError


def test_store_falls_back_past_a_tampered_manager_block(
    replayed_manager, stream_service, tmp_path
):
    store = CheckpointStore(tmp_path / "store", keep=3)
    good = store.save(replayed_manager)
    newest = store.save(replayed_manager)
    assert store.latest_good() == newest
    _rewrite_manifest(newest, UNSIGNED_FIELDS["manager-not-object"])
    with pytest.warns(ReproRuntimeWarning, match=f"{newest.name}.*not restorable"):
        restored = store.restore(stream_service)
    assert restored.session_ids() == replayed_manager.session_ids()
    assert good.name != newest.name


@pytest.mark.parametrize(
    "pointer",
    [b"\xff\xfe not utf-8", b"../outside\n", b"latest-good\n", b"ckpt-999999\n", b""],
    ids=["non-utf8", "escape", "a-file", "missing", "empty"],
)
def test_store_treats_a_hostile_pointer_as_unset(
    pointer, replayed_manager, stream_service, tmp_path
):
    """A bad ``latest-good`` pointer is never followed; restore uses the newest bundle."""
    save_checkpoint(SessionManager(stream_service), tmp_path / "outside")  # no sessions
    store = CheckpointStore(tmp_path / "store", keep=3)
    store.save(replayed_manager)
    store.save(replayed_manager)
    (store.root / "latest-good").write_bytes(pointer)
    assert store.latest_good() is None
    assert "latest_good=None" in repr(store)
    restored = store.restore(stream_service)
    assert len(restored) > 0 and restored.session_ids() == replayed_manager.session_ids()
    assert [entry.name for entry in store.prune()] == []

"""Hostile bundle manifests: every bundle reader raises its own typed error.

The three readers of the shared bundle codec — ``load_model``,
``load_checkpoint`` and ``load_population`` — each take a valid bundle
whose ``manifest.json`` an attacker (or a bad disk) has rewritten.  Each
payload must surface as the reader's documented error class, never as a
bare ``UnicodeDecodeError`` / ``AttributeError`` / ``TypeError``, and a
manifest naming files outside the bundle directory must be refused rather
than followed.
"""

import json

import pytest

from repro.serve.artifacts import ArtifactError, load_model, save_model
from repro.serve.population import load_population, save_population
from repro.stream import CheckpointError, SessionManager, load_checkpoint, save_checkpoint


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


@pytest.fixture
def readers(stream_model, stream_service, workload):
    """reader name -> (write a valid bundle at path, read it back, its error)."""
    return {
        "model": (
            lambda path: save_model(stream_model, path),
            load_model,
            ArtifactError,
        ),
        "checkpoint": (
            lambda path: save_checkpoint(SessionManager(stream_service), path),
            lambda path: load_checkpoint(path, stream_service),
            CheckpointError,
        ),
        "population": (
            lambda path: save_population(workload, path, layout="mmap-dir"),
            load_population,
            ArtifactError,
        ),
    }


@pytest.mark.parametrize("payload", sorted(PAYLOADS))
@pytest.mark.parametrize("reader", ["model", "checkpoint", "population"])
def test_hostile_manifest_raises_the_readers_error(readers, reader, payload, tmp_path):
    write, read, error = readers[reader]
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

"""Bundle writers production no longer has, for old-format read tests.

Production writes one layout (``mmap-dir``: one ``.npy`` per array under
``arrays/``) but still reads older bundles.  These helpers produce those
older forms from a bundle written today, so read tests need no retired
writer options:

* :func:`to_v1_bundle` rewrites a model or checkpoint bundle in place as
  a format-version-1 bundle: a single compressed ``arrays.npz`` and a
  manifest without an ``arrays`` entry;
* :func:`write_legacy_population` writes the format-version-1 single
  ``.npz`` population file from a population bundle's arrays;
* :func:`write_reference_bundle` is an independent re-statement of the
  ``mmap-dir`` writer (file numbering, ``.npy`` bytes, manifest JSON),
  so a test can pin that what production writes has not changed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from repro.io.bundle import _read_arrays  # test-side access to the array layer


def owned_arrays(bundle) -> dict:
    """Every array of a bundle, as owned in-RAM copies."""
    manifest = json.loads((Path(bundle) / "manifest.json").read_text())
    loaded = _read_arrays(bundle, manifest.get("arrays"))
    return {key: np.array(value) for key, value in loaded.items()}


def write_npz(path, arrays: dict, *, compressed: bool = True) -> Path:
    """Write ``arrays`` as one ``.npz`` file (deflated unless ``compressed=False``)."""
    writer = np.savez_compressed if compressed else np.savez
    with open(path, "wb") as handle:
        writer(handle, **arrays)
    return Path(path)


def to_v1_bundle(bundle) -> Path:
    """Rewrite a bundle in place in the format-version-1 ``arrays.npz`` form."""
    bundle = Path(bundle)
    arrays = owned_arrays(bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    shutil.rmtree(bundle / manifest.pop("arrays")["dir"])
    manifest["format_version"] = 1
    write_npz(bundle / "arrays.npz", arrays)
    (bundle / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return bundle


def write_legacy_population(bundle, path) -> Path:
    """The format-version-1 single-file population holding ``bundle``'s arrays."""
    return write_npz(path, {"format_version": np.int64(1), **owned_arrays(bundle)})


def write_reference_bundle(directory, manifest: dict, arrays: dict, *, header: str = "") -> Path:
    """Write an ``mmap-dir`` bundle the way its format defines it."""
    directory = Path(directory)
    (directory / "arrays").mkdir(parents=True)
    files = {}
    for index, key in enumerate(sorted(arrays)):
        files[key] = f"{index:06d}.npy"
        np.save(directory / "arrays" / files[key], np.ascontiguousarray(arrays[key]))
    digest = hashlib.blake2b(digest_size=16)
    digest.update(header.encode())
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        for part in (key, array.dtype.str, str(array.shape)):
            digest.update(part.encode())
        digest.update(array.tobytes())
    manifest = dict(manifest)
    manifest["arrays"] = {
        "layout": "mmap-dir",
        "count": len(arrays),
        "bytes": int(sum(np.asarray(value).nbytes for value in arrays.values())),
        "dir": "arrays",
        "files": files,
    }
    manifest["fingerprint"] = digest.hexdigest()
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return directory


def forge_bundle(bundle, edit, *, header_field=None) -> Path:
    """Apply ``edit(manifest, arrays)`` to a bundle and re-sign it.

    What a forger (or an edit-and-resave tool) does: the result passes
    fingerprint verification, so the reader's own checks must catch
    whatever ``edit`` broke.
    """
    bundle = Path(bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    arrays = owned_arrays(bundle)
    edit(manifest, arrays)
    header = json.dumps(manifest[header_field], sort_keys=True) if header_field else ""
    manifest.pop("arrays", None)
    manifest.pop("fingerprint", None)
    shutil.rmtree(bundle)
    return write_reference_bundle(bundle, manifest, arrays, header=header)

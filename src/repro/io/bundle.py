"""The one bundle contract behind every on-disk format in the repo.

Model artifacts, scoring populations and stream checkpoints all persist
the same shape of data: a ``manifest.json`` next to a set of named NumPy
arrays, fingerprinted with a keyless blake2b digest.  This module owns
that contract end to end:

* :func:`write_bundle` writes the arrays — one raw ``.npy`` file per
  array inside an ``arrays/`` directory (the ``mmap-dir`` layout) —
  stamps the ``arrays`` entry and the content ``fingerprint`` into the
  manifest and writes ``manifest.json``.  Callers run it inside
  :func:`atomic_bundle_dir`, so a bundle is published whole or not at all.
* :func:`read_bundle` reads and validates the manifest, loads the arrays
  with ``np.load(mmap_mode="r")`` — load cost is O(pages touched),
  repeated loads hit the page cache and concurrent loaders share the
  physical pages — and verifies the fingerprint.  Every failure raises
  the caller's error class.
* :func:`ragged_encode` / :func:`ragged_decode` are the flat-plus-offsets
  encoding of per-entity variable-length data; decoding checks the
  offsets before anything is sliced.

Array keys may contain ``/`` (the artifact encoder uses
``000001/tree/feature``-style keys), so file names never derive from
keys: files are numbered in sorted-key order and the key → file map
travels in the manifest's ``arrays`` entry.  The fingerprint digests
dtype, shape and raw bytes per array, so it does not depend on the
layout the arrays were read from.

Bundles written before ``mmap-dir`` became the only layout stay
readable: a manifest without an ``arrays`` entry (format version 1) or
one naming the retired ``npz`` / ``npz-compressed`` layouts reads a
single ``arrays.npz``.  Manifests are untrusted input either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class BundleError(RuntimeError):
    """Raised when an array bundle cannot be written or read."""


#: File name of every bundle's manifest.
MANIFEST_NAME = "manifest.json"

#: The array directory (and, for legacy bundles, the ``.npz`` basename).
ARRAYS_NAME = "arrays"

#: The one layout writers produce, recorded in the manifest's arrays entry.
MMAP_DIR = "mmap-dir"

#: Retired single-file layouts that older bundles may still name.
_LEGACY_NPZ_LAYOUTS = ("npz-compressed", "npz")

#: What ``np.load`` raises on a corrupt ``.npy`` file (a mangled header
#: can fail in the tokenizer numpy runs over it).
_NPY_ERRORS = (ValueError, OSError, EOFError, tokenize.TokenError)

#: What reading a corrupt ``.npz`` raises on top of that: zip damage,
#: a corrupt deflate stream, an unknown compression method or an
#: encrypted member, or a forged size claiming more memory than exists.
_NPZ_ERRORS = _NPY_ERRORS + (
    zipfile.BadZipFile, zlib.error, NotImplementedError, RuntimeError, MemoryError,
)

#: What a decoder raises when bundle content contradicts itself.
_DECODE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def arrays_fingerprint(arrays: dict, *, header: str = "") -> str:
    """Keyless blake2b digest of named arrays (dtype, shape, raw bytes).

    The shared integrity fingerprint of every bundle format in the repo:
    model artifacts prepend their spec JSON as the ``header``, stream
    checkpoints and populations digest their arrays alone.  An
    *integrity* check catching corruption and truncation, not an
    authenticity signature.  The digest is independent of the on-disk
    layout and of whether the arrays are RAM- or mmap-backed.
    """
    digest = hashlib.blake2b(digest_size=16)
    if header:
        digest.update(header.encode())
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(array.dtype.str.encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


# --------------------------------------------------------------------- #
# Atomic, durable publication
# --------------------------------------------------------------------- #


def fsync_dir(path) -> None:
    """``fsync`` a directory so its entry renames are durable.

    A no-op on platforms whose directories cannot be opened for sync
    (the rename itself is still atomic there).
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_tree(root: Path) -> None:
    """``fsync`` every file and directory under ``root`` (bottom-up files,
    then the directories), so all staged bytes are durable before the
    publishing rename."""
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            with open(Path(dirpath) / filename, "rb") as handle:
                os.fsync(handle.fileno())
        fsync_dir(dirpath)


@contextmanager
def atomic_bundle_dir(target_dir, *, error: type = BundleError) -> Iterator[Path]:
    """Stage a bundle directory and publish it atomically.

    The crash-safety primitive behind every bundle writer: the body
    receives a *staging* directory next to the target, writes the
    complete bundle into it, and only after the body returns is the
    staging tree fsynced and renamed into place — so a crash (or an
    injected ``checkpoint.write`` fault) at any point leaves either the
    previous bundle or no bundle, never a torn one.

    When the target already exists it is swapped out: the old bundle is
    moved aside, the staging dir renamed in, and the old bundle removed.
    A crash inside the (tiny) swap window can leave the target briefly
    missing — which readers with retention (``CheckpointStore``) absorb
    by falling back to the previous checkpoint.

    Yields
    ------
    pathlib.Path
        The staging directory to write the bundle into.
    """
    target = Path(target_dir)
    target.parent.mkdir(parents=True, exist_ok=True)
    try:
        staging = Path(
            tempfile.mkdtemp(prefix=f".{target.name}.tmp.", dir=target.parent)
        )
    except OSError as err:
        raise error(f"cannot stage bundle next to {target} ({err})") from err
    try:
        yield staging
        _fsync_tree(staging)
        if target.exists():
            backup = target.parent / f".{target.name}.old.{os.getpid()}"
            if backup.exists():
                shutil.rmtree(backup)
            os.rename(target, backup)
            os.rename(staging, target)
            shutil.rmtree(backup, ignore_errors=True)
        else:
            os.rename(staging, target)
        fsync_dir(target.parent)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def write_file_atomic(path, text: str) -> None:
    """Replace a small text file atomically and durably.

    The text is staged next to ``path``, fsynced, renamed over it and the
    directory fsynced, so readers see the old or the new content, and
    the new content survives a crash once this returns.
    """
    target = Path(path)
    staged = target.parent / f".{target.name}.tmp.{os.getpid()}"
    with open(staged, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staged, target)
    fsync_dir(target.parent)


# --------------------------------------------------------------------- #
# Arrays
# --------------------------------------------------------------------- #


def _write_arrays(bundle_dir, arrays: dict, *, error: type = BundleError) -> dict:
    """Write named arrays under ``bundle_dir/arrays/``, one ``.npy`` each.

    Files are numbered in sorted-key order, so the on-disk naming never
    depends on key contents.  Object dtypes are rejected.

    Returns
    -------
    dict
        The manifest's ``arrays`` entry: ``layout``, ``count``, ``bytes``,
        ``dir`` and the ``files`` key → file-name map that
        :func:`_read_arrays` takes back.
    """
    for key, value in arrays.items():
        if np.asarray(value).dtype.hasobject:
            raise error(
                f"array {key!r} has an object dtype, which bundles never store "
                "(only fixed-size numeric / string dtypes round-trip losslessly)"
            )
    directory = Path(bundle_dir) / ARRAYS_NAME
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    for index, key in enumerate(sorted(arrays)):
        file_name = f"{index:06d}.npy"
        with open(directory / file_name, "wb") as handle:
            np.save(handle, np.ascontiguousarray(arrays[key]), allow_pickle=False)
        files[key] = file_name
    return {
        "layout": MMAP_DIR,
        "count": len(arrays),
        "bytes": int(sum(np.asarray(value).nbytes for value in arrays.values())),
        "dir": ARRAYS_NAME,
        "files": files,
    }


def _member_name(value, what: str, bundle: Path, error: type) -> str:
    """A manifest-supplied file name, confined to one level of the bundle.

    Manifests are untrusted input: a name that is not a plain string, or
    that could climb out of (``..``) or descend below (``/``) its
    directory, is rejected instead of resolved.
    """
    if (
        not isinstance(value, str)
        or value in ("", ".", "..")
        or any(character in value for character in "/\\\0")
    ):
        raise error(
            f"bundle {bundle} names {what} {value!r} in its manifest; "
            "expected a plain file name inside the bundle"
        )
    return value


def read_npz(path, *, what: str, error: type = BundleError) -> dict:
    """Read every array of a legacy ``.npz`` file into owned RAM copies."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{what} is missing {path.name} (truncated?)")
    try:
        with zipfile.ZipFile(path):
            pass  # np.load would treat a non-zip file as .npy or pickle
        with np.load(path, allow_pickle=False) as npz:
            return {key: np.array(npz[key]) for key in npz.files}
    except _NPZ_ERRORS as err:
        raise error(
            f"{what} has an unreadable {path.name} ({err}); "
            "it is corrupt or truncated"
        ) from err


def _read_arrays(bundle_dir, info, *, error: type = BundleError) -> dict:
    """Read a bundle's arrays as described by its manifest ``arrays`` entry.

    ``mmap-dir`` arrays load as read-only memory maps.  An entry that is
    not a dict or has no ``layout`` (every format-version-1 bundle), or
    one naming a retired ``npz`` layout, reads the single ``arrays.npz``
    into RAM.  File and directory names must be plain names inside the
    bundle.

    Returns
    -------
    dict
        ``key -> ndarray``.
    """
    bundle = Path(bundle_dir)
    if not isinstance(info, dict):
        info = {}
    layout = info.get("layout")
    if not layout or layout in _LEGACY_NPZ_LAYOUTS:
        file_name = _member_name(
            info.get("file", f"{ARRAYS_NAME}.npz"), "arrays file", bundle, error
        )
        return read_npz(bundle / file_name, what=f"bundle {bundle}", error=error)
    if layout != MMAP_DIR:
        raise error(
            f"bundle {bundle} names unknown array layout {layout!r}; "
            f"expected {MMAP_DIR!r} (or a legacy npz layout)"
        )
    directory = bundle / _member_name(
        info.get("dir", ARRAYS_NAME), "array directory", bundle, error
    )
    files = info.get("files")
    if not isinstance(files, dict):
        raise error(
            f"bundle {bundle} declares the {MMAP_DIR} layout but its manifest "
            "carries no key index ('files' map)"
        )
    if not directory.is_dir():
        raise error(f"bundle {bundle} is missing its {directory.name}/ array directory")
    arrays: dict[str, np.ndarray] = {}
    for key, file_name in files.items():
        array_path = directory / _member_name(file_name, "array file", bundle, error)
        if not array_path.is_file():
            raise error(
                f"bundle {bundle} is missing array file {directory.name}/{file_name} "
                f"for key {key!r} (truncated?)"
            )
        try:
            arrays[key] = np.load(array_path, mmap_mode="r", allow_pickle=False)
        except _NPY_ERRORS as err:
            raise error(
                f"bundle {bundle} has an unreadable array file "
                f"{directory.name}/{file_name} ({err}); the bundle is corrupt or truncated"
            ) from err
    return arrays


# --------------------------------------------------------------------- #
# Manifests and whole bundles
# --------------------------------------------------------------------- #


def read_json(path, *, what: str, error: type = BundleError):
    """Parse a JSON file, reporting every failure as ``error``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as err:
        # ValueError: bad UTF-8 or bad JSON; RecursionError: nesting too deep.
        raise error(
            f"{what} {path} is unreadable or not valid JSON "
            f"({type(err).__name__}: {err}); it may be truncated"
        ) from err


def read_bundle_manifest(
    bundle_dir,
    *,
    format_name: str,
    supported_versions: Iterable[int],
    kind: str = "bundle",
    error: type = BundleError,
) -> dict:
    """Read and validate a bundle's ``manifest.json``.

    The missing-file / bad-JSON / not-an-object / wrong-format /
    wrong-version checks of every bundle reader; ``kind`` labels the
    bundle in error messages (``"model"``, ``"checkpoint"``).

    Returns
    -------
    dict
        The parsed manifest.
    """
    bundle = Path(bundle_dir)
    manifest_path = bundle / MANIFEST_NAME
    article = "an" if kind[:1].lower() in "aeiou" else "a"
    if not manifest_path.is_file():
        raise error(
            f"{bundle} is not {article} {kind} bundle (missing {MANIFEST_NAME}); "
            "expected a bundle directory"
        )
    manifest = read_json(manifest_path, what=f"{kind} manifest", error=error)
    if not isinstance(manifest, dict):
        raise error(
            f"{manifest_path} holds a JSON {type(manifest).__name__}, "
            "not a manifest object"
        )
    if manifest.get("format") != format_name:
        raise error(
            f"{manifest_path} is not a {format_name} manifest "
            f"(format field: {manifest.get('format')!r})"
        )
    versions = tuple(supported_versions)
    version = manifest.get("format_version")
    if version not in versions:
        readable = ", ".join(str(value) for value in versions)
        raise error(
            f"unsupported {kind} format version {version!r}; this build reads "
            f"version(s) {readable} — re-save with a matching repro"
        )
    return manifest


def _fingerprint_header(
    manifest: dict, header_field: Optional[str], bundle: Path, error: type
) -> str:
    """Canonical JSON of the manifest field the fingerprint covers, if any."""
    if header_field is None:
        return ""
    tree = manifest.get(header_field)
    if not isinstance(tree, dict):
        raise error(f"bundle {bundle} has no {header_field} tree in its manifest")
    try:
        return json.dumps(tree, sort_keys=True)
    except RecursionError as err:
        raise error(f"bundle {bundle} has a {header_field} tree nested too deeply") from err


def write_bundle(
    staging,
    manifest: dict,
    arrays: dict,
    *,
    header_field: Optional[str] = None,
    error: type = BundleError,
) -> None:
    """Write ``arrays`` and ``manifest.json`` into a staged bundle directory.

    Stamps the ``arrays`` entry and the content ``fingerprint`` into
    ``manifest`` first.  ``header_field`` names a manifest field (the
    model ``spec``) whose canonical JSON the fingerprint covers too.
    Call it inside :func:`atomic_bundle_dir`.
    """
    bundle = Path(staging)
    manifest["arrays"] = _write_arrays(bundle, arrays, error=error)
    header = _fingerprint_header(manifest, header_field, bundle, error)
    manifest["fingerprint"] = arrays_fingerprint(arrays, header=header)
    (bundle / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_bundle(
    bundle_dir,
    *,
    format_name: str,
    supported_versions: Iterable[int],
    kind: str = "bundle",
    header_field: Optional[str] = None,
    manifest: Optional[dict] = None,
    error: type = BundleError,
) -> tuple[dict, dict]:
    """Read a bundle written by :func:`write_bundle` and verify it.

    Reads and validates the manifest (unless the caller already did, via
    :func:`read_bundle_manifest`, and passes it), reads the arrays and
    checks the content fingerprint before anything is decoded.

    Returns
    -------
    tuple
        ``(manifest, arrays)``.

    Raises
    ------
    error
        On a missing, unreadable or hostile manifest, missing or corrupt
        arrays, or a fingerprint mismatch.
    """
    bundle = Path(bundle_dir)
    if manifest is None:
        manifest = read_bundle_manifest(
            bundle,
            format_name=format_name,
            supported_versions=supported_versions,
            kind=kind,
            error=error,
        )
    header = _fingerprint_header(manifest, header_field, bundle, error)
    arrays = _read_arrays(bundle, manifest.get("arrays"), error=error)
    actual = arrays_fingerprint(arrays, header=header)
    if actual != manifest.get("fingerprint"):
        raise error(
            f"{kind} bundle {bundle} failed content-fingerprint verification "
            f"(expected {manifest.get('fingerprint')!r}, computed {actual!r}); "
            "the bundle was modified or corrupted after it was saved"
        )
    return manifest, arrays


# --------------------------------------------------------------------- #
# Decoding the arrays
# --------------------------------------------------------------------- #


def check_arrays(arrays: dict, schema: dict, *, where: str, error: type) -> None:
    """Check that each schema key is present with its dtype kind and shape.

    ``schema`` maps a key to ``(kinds, shape)``: ``kinds`` is a string of
    accepted ``dtype.kind`` characters and ``shape`` a tuple whose
    ``None`` entries match any length.
    """
    missing = [key for key in schema if key not in arrays]
    if missing:
        raise error(f"{where} is missing arrays {missing}")
    for key, (kinds, shape) in schema.items():
        array = arrays[key]
        if (
            array.dtype.kind not in kinds
            or array.ndim != len(shape)
            or any(want is not None and got != want for got, want in zip(array.shape, shape))
        ):
            expected = "(" + ", ".join("*" if dim is None else str(dim) for dim in shape) + ")"
            raise error(
                f"{where} stores {key!r} as {array.dtype} {array.shape}; "
                f"expected kind {kinds!r} with shape {expected}"
            )


def ragged_encode(chunks: Sequence, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-entity chunks into ``(flat, offsets)``.

    Chunk ``i`` is ``flat[offsets[i]:offsets[i + 1]]``.  Chunks are joined
    along their first axis, so ``(k, w)`` chunks give one ``(sum k, w)``
    block whose columns all share the one ``offsets`` vector (with no
    chunks, ``flat`` is empty and 1-D).  ``offsets`` is int64 with
    ``len(chunks) + 1`` entries starting at 0.
    """
    offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(chunk) for chunk in chunks], dtype=np.int64)
    if not chunks:
        return np.zeros(0, dtype=dtype), offsets
    return np.concatenate([np.asarray(chunk, dtype=dtype) for chunk in chunks]), offsets


def ragged_decode(
    flat: np.ndarray, offsets: np.ndarray, n: int, *, name: str, where: str, error: type
) -> list[np.ndarray]:
    """Split ``flat`` back into its ``n`` chunks (views, never copies).

    The offsets are checked before anything is sliced: a 1-D integer
    vector of ``n + 1`` entries that starts at 0, never decreases and
    ends at ``len(flat)``.
    """
    offsets = np.asarray(offsets)
    if (
        np.ndim(flat) != 1
        or offsets.dtype.kind not in "iu"
        or offsets.shape != (n + 1,)
        or offsets[0] != 0
        or offsets[-1] != flat.shape[0]
        or np.any(offsets[1:] < offsets[:-1])
    ):
        raise error(
            f"{where} has invalid {name}: expected {n + 1} non-decreasing integer "
            "offsets from 0 to the length of its 1-D column"
        )
    bounds = offsets.tolist()
    return [flat[start:end] for start, end in zip(bounds[:-1], bounds[1:])]


@contextmanager
def decoding(where: str, error: type) -> Iterator[None]:
    """Report a decoder tripping over bundle content as the reader's ``error``.

    Content that passed fingerprint verification can still contradict
    itself (a forged bundle, or one edited and re-signed): the builtin
    error a constructor raises on it becomes the documented error type.
    """
    try:
        yield
    except error:
        raise
    except _DECODE_ERRORS as err:
        raise error(
            f"{where} has inconsistent content ({type(err).__name__}: {err}); "
            "it was not written by this repro or was edited afterwards"
        ) from err

"""One array-bundle codec for every on-disk format in the repo.

Model artifacts, scoring populations and stream checkpoints all persist
the same shape of data: a JSON manifest next to a set of named NumPy
arrays, fingerprinted with a keyless blake2b digest.  Before this module
each of the three call sites hand-rolled the ``arrays.npz`` round-trip;
now they share one codec with three layouts behind one enum:

``BundleLayout.NPZ_COMPRESSED``
    A single deflate-compressed ``arrays.npz`` — the historical (format
    version 1) layout.  Smallest on disk, but every load pays an
    O(bundle) decompression even when the caller touches one array.
``BundleLayout.NPZ``
    A single *uncompressed* ``arrays.npz``.  Loads skip the deflate pass
    but still copy every array out of the zip container.
``BundleLayout.MMAP_DIR``
    One raw ``.npy`` file per array inside an ``arrays/`` directory,
    plus a key index in the manifest entry.  Arrays are loaded with
    ``np.load(mmap_mode="r")``: the OS maps the pages lazily, so load
    cost is O(pages-touched) rather than O(bundle), repeated loads hit
    the page cache, and concurrent processes loading the same bundle
    **share** the physical pages — the zero-copy serving layout.

Array keys may contain ``/`` (the artifact encoder uses
``000001/tree/feature``-style keys); the mmap-dir layout therefore never
derives file names from keys — files are numbered in sorted-key order
and the key → file map travels in the manifest entry returned by
:func:`write_arrays`.

The blake2b content fingerprint (:func:`arrays_fingerprint`) digests
dtype, shape and raw bytes per array, so it is **layout-independent**:
re-saving a bundle in a different layout preserves its fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import zipfile
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

import numpy as np


class BundleError(RuntimeError):
    """Raised when an array bundle cannot be written or read."""


class BundleLayout(str, Enum):
    """On-disk array layout of a bundle (see the module docstring)."""

    NPZ_COMPRESSED = "npz-compressed"
    NPZ = "npz"
    MMAP_DIR = "mmap-dir"


def as_layout(
    layout: Union[str, BundleLayout], *, error: type = BundleError
) -> BundleLayout:
    """Coerce a layout name or enum member to a :class:`BundleLayout`.

    Raises
    ------
    BundleError
        If the name does not match any layout (``error`` when given).
    """
    if isinstance(layout, BundleLayout):
        return layout
    try:
        return BundleLayout(str(layout))
    except ValueError:
        valid = ", ".join(member.value for member in BundleLayout)
        raise error(f"unknown bundle layout {layout!r}; expected one of: {valid}")


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
# Atomic bundle publication
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


# --------------------------------------------------------------------- #
# Array I/O
# --------------------------------------------------------------------- #

#: Default basename for the arrays payload (``arrays.npz`` / ``arrays/``).
DEFAULT_ARRAYS_NAME = "arrays"


def _check_dtypes(arrays: dict, error: type) -> None:
    for key, value in arrays.items():
        if np.asarray(value).dtype.hasobject:
            raise error(
                f"array {key!r} has an object dtype, which bundles never store "
                "(only fixed-size numeric / string dtypes round-trip losslessly)"
            )


def write_arrays(
    bundle_dir,
    arrays: dict,
    *,
    layout: Union[str, BundleLayout] = BundleLayout.NPZ_COMPRESSED,
    name: str = DEFAULT_ARRAYS_NAME,
    error: type = BundleError,
) -> dict:
    """Write named arrays under ``bundle_dir`` in the chosen layout.

    Args
    ----
    bundle_dir:
        The bundle directory (created if missing).
    arrays:
        ``key -> ndarray`` payload.  Keys may contain ``/``; object
        dtypes are rejected.
    layout:
        Target :class:`BundleLayout` (or its string value).
    name:
        Basename of the payload: ``{name}.npz`` for the npz layouts, a
        ``{name}/`` directory for ``mmap-dir``.
    error:
        Exception class raised on failure (callers pass their own
        bundle-error subclass).

    Returns
    -------
    dict
        The manifest entry describing the payload — store it under the
        manifest's ``"arrays"`` key and hand it back to
        :func:`read_arrays`.  Always carries ``layout``, ``count`` and
        ``bytes``; npz layouts add ``file``, mmap-dir adds ``dir`` and
        the ``files`` key → file-name map.
    """
    layout = as_layout(layout, error=error)
    _check_dtypes(arrays, error)
    bundle = Path(bundle_dir)
    bundle.mkdir(parents=True, exist_ok=True)
    total_bytes = int(sum(np.asarray(value).nbytes for value in arrays.values()))
    info = {"layout": layout.value, "count": len(arrays), "bytes": total_bytes}
    if layout in (BundleLayout.NPZ_COMPRESSED, BundleLayout.NPZ):
        file_name = f"{name}.npz"
        writer = np.savez_compressed if layout is BundleLayout.NPZ_COMPRESSED else np.savez
        with open(bundle / file_name, "wb") as handle:
            writer(handle, **arrays)
        info["file"] = file_name
        return info
    # mmap-dir: one raw .npy per array, numbered in sorted-key order so
    # the on-disk naming never depends on key contents ("/" is common).
    directory = bundle / name
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    for index, key in enumerate(sorted(arrays)):
        file_name = f"{index:06d}.npy"
        with open(directory / file_name, "wb") as handle:
            np.save(handle, np.ascontiguousarray(arrays[key]), allow_pickle=False)
        files[key] = file_name
    info["dir"] = name
    info["files"] = files
    return info


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


def read_arrays(
    bundle_dir,
    info: Optional[dict] = None,
    *,
    mmap: bool = True,
    error: type = BundleError,
) -> dict:
    """Read a bundle's arrays as written by :func:`write_arrays`.

    Args
    ----
    bundle_dir:
        The bundle directory.
    info:
        The manifest entry returned by :func:`write_arrays`.  ``None``
        (or anything but a dict, or an entry without a ``layout`` field —
        every pre-layout format-version-1 bundle) means the historical
        single ``arrays.npz`` file.  File and directory names in the
        entry must be plain names inside the bundle.
    mmap:
        For the ``mmap-dir`` layout, load with ``np.load(mmap_mode="r")``
        so arrays stay file-backed, read-only and lazily paged.  The npz
        layouts always materialize in RAM (zip members cannot be
        mapped).
    error:
        Exception class raised on failure.

    Returns
    -------
    dict
        ``key -> ndarray``.  Mmap-backed arrays are read-only views; npz
        arrays are owned and writable.
    """
    bundle = Path(bundle_dir)
    if not isinstance(info, dict):
        info = {}
    layout_name = info.get("layout")
    layout = (
        as_layout(layout_name, error=error) if layout_name else BundleLayout.NPZ_COMPRESSED
    )
    if layout in (BundleLayout.NPZ_COMPRESSED, BundleLayout.NPZ):
        file_name = _member_name(
            info.get("file", f"{DEFAULT_ARRAYS_NAME}.npz"), "arrays file", bundle, error
        )
        arrays_path = bundle / file_name
        if not arrays_path.is_file():
            raise error(f"bundle {bundle} is missing {arrays_path.name} (truncated?)")
        try:
            with np.load(arrays_path, allow_pickle=False) as npz:
                return {key: np.array(npz[key]) for key in npz.files}
        except (zipfile.BadZipFile, ValueError, OSError, EOFError) as err:
            raise error(
                f"bundle {bundle} has an unreadable {arrays_path.name} ({err}); "
                "the bundle is corrupt or truncated"
            ) from err
    directory = bundle / _member_name(
        info.get("dir", DEFAULT_ARRAYS_NAME), "array directory", bundle, error
    )
    files = info.get("files")
    if not isinstance(files, dict):
        raise error(
            f"bundle {bundle} declares the mmap-dir layout but its manifest "
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
            arrays[key] = np.load(
                array_path, mmap_mode="r" if mmap else None, allow_pickle=False
            )
        except (ValueError, OSError, EOFError) as err:
            raise error(
                f"bundle {bundle} has an unreadable array file "
                f"{directory.name}/{file_name} ({err}); the bundle is corrupt or truncated"
            ) from err
    return arrays


# --------------------------------------------------------------------- #
# Manifest I/O
# --------------------------------------------------------------------- #


def read_bundle_manifest(
    bundle_dir,
    *,
    format_name: str,
    supported_versions: Iterable[int],
    kind: str = "bundle",
    manifest_name: str = "manifest.json",
    error: type = BundleError,
) -> dict:
    """Read and validate a bundle's ``manifest.json``.

    The shared missing-file / bad-JSON / not-an-object / wrong-format /
    wrong-version checks of every bundle reader.  Content-fingerprint
    verification is the caller's job (the hashed payload differs per
    format).

    Args
    ----
    bundle_dir:
        The bundle directory.
    format_name:
        Required value of the manifest's ``format`` field.
    supported_versions:
        ``format_version`` values this reader accepts.
    kind:
        Human label used in error messages (``"model"``, ``"checkpoint"``).
    error:
        Exception class raised on failure.

    Returns
    -------
    dict
        The parsed manifest.
    """
    bundle = Path(bundle_dir)
    manifest_path = bundle / manifest_name
    article = "an" if kind[:1].lower() in "aeiou" else "a"
    if not manifest_path.is_file():
        raise error(
            f"{bundle} is not {article} {kind} bundle (missing {manifest_name}); "
            "expected a bundle directory"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:  # ValueError: bad UTF-8 or bad JSON
        raise error(
            f"{manifest_path} is not valid JSON ({err}); the bundle may be truncated"
        ) from err
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

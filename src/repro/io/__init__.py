"""The shared on-disk bundle contract (:mod:`repro.io.bundle`).

One implementation of the ``manifest.json`` + named-arrays round-trip
used by model artifacts (:mod:`repro.serve.artifacts`), scoring
populations (:mod:`repro.serve.population`) and stream checkpoints
(:mod:`repro.stream.checkpoint`): one writer, one fingerprint-verifying
reader over memory-mappable ``.npy``-per-array directories, and one
flat-plus-offsets codec for ragged data.
"""

from repro.io.bundle import (
    BundleError,
    arrays_fingerprint,
    atomic_bundle_dir,
    fsync_dir,
    ragged_decode,
    ragged_encode,
    read_bundle,
    read_bundle_manifest,
    write_bundle,
    write_file_atomic,
)

__all__ = [
    "BundleError",
    "arrays_fingerprint",
    "atomic_bundle_dir",
    "fsync_dir",
    "ragged_decode",
    "ragged_encode",
    "read_bundle",
    "read_bundle_manifest",
    "write_bundle",
    "write_file_atomic",
]

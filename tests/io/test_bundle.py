"""The shared bundle contract: arrays, fingerprints, ragged codec, failure modes."""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.io.bundle import (  # the private array layer is test-side access
    BundleError,
    _read_arrays,
    _write_arrays,
    arrays_fingerprint,
    atomic_bundle_dir,
    ragged_decode,
    ragged_encode,
    read_bundle,
    read_bundle_manifest,
    write_bundle,
    write_file_atomic,
)

from tests.oracles.bundles import to_v1_bundle, write_npz, write_reference_bundle


def _sample_arrays():
    rng = np.random.default_rng(3)
    return {
        "floats": rng.standard_normal((7, 3)),
        "ints": rng.integers(-5, 5, size=11),
        "000001/tree/feature": np.array([2, -1, 0], dtype=np.int64),  # "/" in key
        "names": np.array(["alpha", "beta"], dtype=np.str_),
        "bools": np.array([True, False, True]),
        "empty": np.zeros((0, 4)),
        "scalarish": np.array(3.5),
    }


def _write(bundle, arrays, **manifest_fields):
    with atomic_bundle_dir(bundle) as staging:
        write_bundle(
            staging, {"format": "fmt", "format_version": 2, **manifest_fields}, arrays,
            header_field="spec" if "spec" in manifest_fields else None,
        )
    return bundle


def _read(bundle, **kwargs):
    return read_bundle(bundle, format_name="fmt", supported_versions=(1, 2), **kwargs)


def test_round_trip_bitwise(tmp_path):
    arrays = _sample_arrays()
    info = _write_arrays(tmp_path / "bundle", arrays)
    assert info["layout"] == "mmap-dir"
    assert info["count"] == len(arrays)
    loaded = _read_arrays(tmp_path / "bundle", info)
    assert set(loaded) == set(arrays)
    for key in arrays:
        assert loaded[key].dtype == np.asarray(arrays[key]).dtype
        np.testing.assert_array_equal(loaded[key], arrays[key])


def test_write_bundle_matches_the_reference_writer(tmp_path):
    """Manifest and array files are byte-identical to the format's definition."""
    arrays = _sample_arrays()
    spec = {"__type__": "demo", "nested": {"b": [1, 2], "a": None}}
    manifest, _ = _read(_write(tmp_path / "bundle", arrays, spec=spec), header_field="spec")
    reference = write_reference_bundle(
        tmp_path / "reference",
        {"format": "fmt", "format_version": 2, "spec": spec},
        arrays,
        header=json.dumps(spec, sort_keys=True),
    )
    written = sorted(path.relative_to(tmp_path / "bundle") for path in (tmp_path / "bundle").rglob("*"))
    assert written == sorted(path.relative_to(reference) for path in reference.rglob("*"))
    for relative in written:
        if (reference / relative).is_file():
            assert (tmp_path / "bundle" / relative).read_bytes() == (
                reference / relative
            ).read_bytes(), relative
    assert manifest["fingerprint"] == arrays_fingerprint(
        arrays, header=json.dumps(spec, sort_keys=True)
    )


def test_fingerprint_is_layout_independent(tmp_path):
    """A legacy arrays.npz holding the same arrays verifies under the same fingerprint."""
    arrays = _sample_arrays()
    bundle = _write(tmp_path / "b", arrays)
    manifest, mapped = _read(bundle)
    to_v1_bundle(bundle)
    legacy_manifest, legacy = _read(bundle)
    assert "arrays" not in legacy_manifest
    assert legacy_manifest["fingerprint"] == manifest["fingerprint"]
    assert arrays_fingerprint(legacy) == arrays_fingerprint(mapped) == arrays_fingerprint(arrays)


def test_fingerprint_sensitive_to_content_key_dtype_shape():
    base = {"a": np.arange(6, dtype=np.float64)}
    assert arrays_fingerprint(base) != arrays_fingerprint({"a": np.arange(6) + 1.0})
    assert arrays_fingerprint(base) != arrays_fingerprint({"b": np.arange(6, dtype=np.float64)})
    assert arrays_fingerprint(base) != arrays_fingerprint({"a": np.arange(6, dtype=np.int64)})
    assert arrays_fingerprint(base) != arrays_fingerprint(
        {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
    )
    assert arrays_fingerprint(base, header="spec") != arrays_fingerprint(base)


def test_arrays_load_as_read_only_memmaps(tmp_path):
    arrays = _sample_arrays()
    info = _write_arrays(tmp_path / "b", arrays)
    loaded = _read_arrays(tmp_path / "b", info)
    assert all(isinstance(value, np.memmap) for value in loaded.values())
    assert not loaded["floats"].flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        loaded["floats"][0, 0] = 99.0


def test_missing_info_reads_legacy_npz(tmp_path):
    """A manifest entry without a layout (format v1) means arrays.npz."""
    arrays = _sample_arrays()
    (tmp_path / "legacy").mkdir()
    write_npz(tmp_path / "legacy" / "arrays.npz", arrays)
    for info in (None, {"file": "arrays.npz", "count": len(arrays)}):
        loaded = _read_arrays(tmp_path / "legacy", info)
        np.testing.assert_array_equal(loaded["floats"], arrays["floats"])


@pytest.mark.parametrize("layout", ["npz", "npz-compressed"])
def test_retired_npz_layouts_still_read(tmp_path, layout):
    """Version-2 entries naming a retired single-file layout read their file."""
    arrays = _sample_arrays()
    (tmp_path / "b").mkdir()
    write_npz(tmp_path / "b" / "payload.npz", arrays, compressed=layout == "npz-compressed")
    loaded = _read_arrays(tmp_path / "b", {"layout": layout, "file": "payload.npz"})
    assert arrays_fingerprint(loaded) == arrays_fingerprint(arrays)


def test_object_dtype_rejected(tmp_path):
    with pytest.raises(BundleError, match="object dtype"):
        _write_arrays(tmp_path / "bad", {"objs": np.array([{}, []], dtype=object)})


def test_missing_npz_file(tmp_path):
    (tmp_path / "b").mkdir()
    with pytest.raises(BundleError, match="missing"):
        _read_arrays(tmp_path / "b", None)


def _npz_member(npy: bytes, *, deflate: bool = False) -> tuple[bytes, zipfile.ZipInfo]:
    """A one-member ``.npz`` holding ``npy`` (CRC computed by zipfile)."""
    buffer = io.BytesIO()
    method = zipfile.ZIP_DEFLATED if deflate else zipfile.ZIP_STORED
    with zipfile.ZipFile(buffer, "w", compression=method) as archive:
        archive.writestr("floats.npy", npy)
        info = archive.getinfo("floats.npy")
    return buffer.getvalue(), info


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _tokenizer_tripping_member(blob: bytes) -> bytes:
    """A ``.npy`` member whose header never closes its brackets."""
    npy = _npy(np.arange(3.0))
    length = int.from_bytes(npy[8:10], "little")
    header = npy[10 : 10 + length].replace(b"(3,)", b"(3, ").replace(b"}", b" ")
    return _npz_member(npy[:10] + header + npy[10 + length :])[0]


def _corrupt_deflate_member(blob: bytes) -> bytes:
    """A deflated member whose stream starts with a reserved block type."""
    archive, info = _npz_member(_npy(np.arange(64.0)), deflate=True)
    start = info.header_offset + 30 + len(info.filename) + len(info.extra)
    return archive[:start] + b"\xff" * info.compress_size + archive[start + info.compress_size :]


def _unknown_method_member(blob: bytes) -> bytes:
    """A stored member whose local and central headers name compression method 99."""
    archive, info = _npz_member(_npy(np.arange(3.0)))
    patched = bytearray(archive)
    central = archive.rindex(b"PK\x01\x02")
    patched[info.header_offset + 8 : info.header_offset + 10] = (99).to_bytes(2, "little")
    patched[central + 10 : central + 12] = (99).to_bytes(2, "little")
    return bytes(patched)


@pytest.mark.parametrize(
    "payload",
    [
        lambda blob: blob[: len(blob) // 2],
        lambda blob: b"\x93NUMPY" + blob[6:],
        _tokenizer_tripping_member,
        _corrupt_deflate_member,
        _unknown_method_member,
    ],
    ids=["truncated", "npy-magic", "tokenizer-header", "corrupt-deflate", "unknown-method"],
)
def test_unreadable_npz(tmp_path, payload):
    path = write_npz(tmp_path / "arrays.npz", _sample_arrays())
    path.write_bytes(payload(path.read_bytes()))
    with pytest.raises(BundleError, match="unreadable"):
        _read_arrays(tmp_path, None)


def test_truncated_array_file(tmp_path):
    info = _write_arrays(tmp_path / "b", _sample_arrays())
    path = tmp_path / "b" / "arrays" / info["files"]["floats"]
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(BundleError, match="unreadable"):
        _read_arrays(tmp_path / "b", info)


def test_unknown_layout(tmp_path):
    info = _write_arrays(tmp_path / "b", {"a": np.arange(3)})
    with pytest.raises(BundleError, match="unknown array layout"):
        _read_arrays(tmp_path / "b", {**info, "layout": "tar"})


def test_mmap_dir_missing_key_index(tmp_path):
    info = _write_arrays(tmp_path / "b", {"a": np.arange(3)})
    stripped = {key: value for key, value in info.items() if key != "files"}
    with pytest.raises(BundleError, match="key index"):
        _read_arrays(tmp_path / "b", stripped)


def test_mmap_dir_missing_array_file(tmp_path):
    arrays = {"a": np.arange(3), "b": np.arange(5.0)}
    info = _write_arrays(tmp_path / "b", arrays)
    (tmp_path / "b" / "arrays" / info["files"]["b"]).unlink()
    with pytest.raises(BundleError, match="missing array file"):
        _read_arrays(tmp_path / "b", info)


def test_custom_error_class(tmp_path):
    class MyError(BundleError):
        pass

    with pytest.raises(MyError):
        _read_arrays(tmp_path / "nowhere", None, error=MyError)


def test_read_bundle_verifies_the_fingerprint(tmp_path):
    arrays = {"a": np.arange(4.0)}
    bundle = _write(tmp_path / "b", arrays, spec={"k": 1})
    _read(bundle, header_field="spec")
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["spec"]["k"] = 2  # the spec is covered too
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BundleError, match="fingerprint"):
        _read(bundle, header_field="spec")
    manifest["spec"] = [1]
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BundleError, match="no spec tree"):
        _read(bundle, header_field="spec")


def test_manifest_validation(tmp_path):
    bundle = tmp_path / "b"
    bundle.mkdir()
    with pytest.raises(BundleError, match="missing manifest.json"):
        read_bundle_manifest(bundle, format_name="fmt", supported_versions=(1,))
    (bundle / "manifest.json").write_text("{broken")
    with pytest.raises(BundleError, match="not valid JSON"):
        read_bundle_manifest(bundle, format_name="fmt", supported_versions=(1,))
    (bundle / "manifest.json").write_text("[" * 200_000)
    with pytest.raises(BundleError, match="RecursionError"):
        read_bundle_manifest(bundle, format_name="fmt", supported_versions=(1,))
    (bundle / "manifest.json").write_text(json.dumps({"format": "other", "format_version": 1}))
    with pytest.raises(BundleError, match="is not a fmt manifest"):
        read_bundle_manifest(bundle, format_name="fmt", supported_versions=(1,))
    (bundle / "manifest.json").write_text(json.dumps({"format": "fmt", "format_version": 9}))
    with pytest.raises(BundleError, match="unsupported thing format version"):
        read_bundle_manifest(
            bundle, format_name="fmt", supported_versions=(1, 2), kind="thing"
        )
    (bundle / "manifest.json").write_text(
        json.dumps({"format": "fmt", "format_version": 2, "extra": True})
    )
    manifest = read_bundle_manifest(bundle, format_name="fmt", supported_versions=(1, 2))
    assert manifest["extra"] is True


def test_write_file_atomic_replaces_without_residue(tmp_path):
    target = tmp_path / "pointer"
    write_file_atomic(target, "one\n")
    write_file_atomic(target, "two\n")
    assert target.read_text() == "two\n"
    assert [path.name for path in tmp_path.iterdir()] == ["pointer"]


# --------------------------------------------------------------------- #
# Ragged codec
# --------------------------------------------------------------------- #


def test_ragged_round_trip():
    chunks = [np.arange(3.0), np.zeros(0), np.arange(4), np.array([7.0])]
    flat, offsets = ragged_encode(chunks, np.float64)
    assert offsets.dtype == np.int64 and flat.dtype == np.float64
    assert offsets.tolist() == [0, 3, 3, 7, 8]
    decoded = ragged_decode(flat, offsets, 4, name="o", where="w", error=BundleError)
    for chunk, back in zip(chunks, decoded):
        np.testing.assert_array_equal(back, chunk)
    # 2-D chunks join along rows: every column shares one offsets vector.
    block, row_offsets = ragged_encode([np.ones((2, 4)), np.zeros((0, 4)), np.ones((1, 4))], np.float64)
    assert block.shape == (3, 4) and row_offsets.tolist() == [0, 2, 2, 3]
    columns = ragged_decode(block[:, 1], row_offsets, 3, name="o", where="w", error=BundleError)
    assert [len(column) for column in columns] == [2, 0, 1]
    empty_flat, empty_offsets = ragged_encode([], np.int64)
    assert empty_flat.dtype == np.int64 and empty_flat.shape == (0,)
    assert empty_offsets.tolist() == [0]
    assert ragged_decode(empty_flat, empty_offsets, 0, name="o", where="w", error=BundleError) == []


@pytest.mark.parametrize(
    "offsets",
    [
        [0, 5, 3, 8],  # decreasing
        [0, 3, 5, 9],  # past the end
        [0, 3, 5, 7],  # short of the end
        [1, 3, 5, 8],  # not starting at 0
        [0, 3, 8],  # fewer entries than n + 1
        [0, 3, 5, 8, 8],  # more entries than n + 1
        [0.0, 3.0, 5.0, 8.0],  # not integers
        [[0, 3], [5, 8]],  # not a vector
    ],
)
def test_ragged_decode_rejects_bad_offsets(offsets):
    with pytest.raises(BundleError, match="invalid demo_offsets"):
        ragged_decode(
            np.arange(8.0), np.array(offsets), 3, name="demo_offsets", where="w",
            error=BundleError,
        )

"""Zero-copy artifact loads: the bundle's mmap-dir layout vs compressed npz.

``load_model`` on a bundle as ``save_model`` writes it (``arrays/``,
``np.load(mmap_mode="r")``, O(pages-touched)) vs. the same model as a
format-version-1 bundle (one compressed ``arrays.npz``, built by the
test-side writer in ``tests/oracles/bundles.py``; full decompress on
every load) — gate >= 3x, with transforms asserted bitwise against the
in-memory original for both forms.

The timing gate is enforced only when ``REPRO_MEMORY_GATES`` is set (the
``workflow_dispatch`` memory-bench CI job sets it); the tier-1 job still
runs this module for the equivalence assertions, so correctness is
checked on every push while wall-clock flakiness cannot break the build.
All numbers land in ``.bench_out/pytest/BENCH_memory.json`` via the
session hook.
"""

import os
import statistics
import time

import numpy as np

from repro.ml.preprocessing import StandardScaler
from repro.serve import load_model, save_model

from tests.oracles.bundles import to_v1_bundle

#: Whether the wall-clock gate is enforced (equivalence always is).
GATES_ENFORCED = bool(os.environ.get("REPRO_MEMORY_GATES"))

MMAP_LOAD_SPEEDUP_GATE = 3.0


def _median_seconds(function, repeats: int) -> float:
    function()  # warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _gate(name: str, speedup: float, threshold: float, enforced: bool) -> None:
    print(f"{name}: {speedup:.2f}x (gate >= {threshold}x, enforced={enforced})")
    if enforced:
        assert speedup >= threshold, f"{name} speedup {speedup:.2f}x below {threshold}x gate"


def test_bench_mmap_artifact_load(memory_timings, tmp_path):
    """mmap-dir load is O(pages); compressed load pays a full decompress."""
    rng = np.random.default_rng(0)
    # ~16 MB of incompressible fitted state: the decompression cost the
    # serving path used to pay on every model load.
    scaler = StandardScaler().fit(rng.standard_normal((4, 1_000_000)))
    X_new = rng.standard_normal((8, 1_000_000))
    expected = scaler.transform(X_new)

    mmap_bundle = save_model(scaler, tmp_path / "mmap")
    npz_bundle = to_v1_bundle(save_model(scaler, tmp_path / "npz"))

    # Equivalence first: both forms transform bitwise like the original.
    for bundle in (mmap_bundle, npz_bundle):
        assert np.array_equal(load_model(bundle).transform(X_new), expected)

    mmap_median = _median_seconds(lambda: load_model(mmap_bundle), repeats=5)
    npz_median = _median_seconds(lambda: load_model(npz_bundle), repeats=5)

    speedup = npz_median / mmap_median
    memory_timings["artifact_load_npz_compressed_s"] = npz_median
    memory_timings["artifact_load_mmap_dir_s"] = mmap_median
    memory_timings["artifact_load_speedup"] = speedup
    memory_timings["gates_enforced"] = float(GATES_ENFORCED)
    _gate("mmap_artifact_load", speedup, MMAP_LOAD_SPEEDUP_GATE, GATES_ENFORCED)

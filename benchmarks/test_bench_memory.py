"""Zero-copy data plane: mmap artifact loads and shared-memory fan-out.

Three measurements cover the memory/serialization layer end to end:

* **memory-mapped artifact loading** — ``load_model`` on the ``mmap-dir``
  layout (``np.load(mmap_mode="r")``, O(pages-touched)) vs. the same
  model saved ``npz-compressed`` (full decompress on every load) —
  gate >= 3x, with transforms asserted bitwise against the in-memory
  original for both layouts;
* **context delivery tax** — what shipping one score_batch-sized context
  to W workers costs: W x (``pickle.dumps`` + ``pickle.loads``) for the
  per-worker pickling oracle vs. one shared export plus W O(1) attaches
  (:func:`pack_context` / :func:`unpack_context` exactly as the pool
  initializer runs them) — gate >= 5x;
* **cold process fan-out, end to end** — ``TaskRunner.map`` A/B with
  ``context_mode`` ``"pickle"`` vs ``"shared"``, recorded ungated: on
  fork-based hosts the pickled initargs ride copy-on-write fork memory
  (no serialization happens), so the end-to-end delta shows only on
  spawn-based platforms; the delivery-tax measurement above is the
  portable number.  Results are asserted equal to the serial oracle in
  both modes, and no shared segments may leak.

The timing gates are enforced only when ``REPRO_MEMORY_GATES`` is set
(the ``workflow_dispatch`` memory-bench CI job sets it) and, for the
fan-out-shaped gate, on ``cpu_count >= 2`` hosts (like the runtime
gates); the tier-1 job still runs this module for the equivalence
assertions, so correctness is checked on every push while wall-clock
flakiness cannot break the build.  All numbers land in
``.bench_out/pytest/BENCH_memory.json`` via the session hook.
"""

import os
import pickle
import statistics
import time

import numpy as np

from repro.ml.preprocessing import StandardScaler
from repro.runtime import TaskRunner, leaked_segments
from repro.runtime.shm import _ATTACHED_BLOCKS, pack_context, unpack_context
from repro.serve import load_model, save_model

#: Whether the wall-clock gates are enforced (equivalence always is).
GATES_ENFORCED = bool(os.environ.get("REPRO_MEMORY_GATES"))

MMAP_LOAD_SPEEDUP_GATE = 3.0
SHARED_DELIVERY_SPEEDUP_GATE = 5.0

#: Workers the delivery-tax measurement models (a serving-fleet fan-out).
DELIVERY_WORKERS = 8

_MULTI_CORE = (os.cpu_count() or 1) >= 2


def _median_seconds(function, repeats: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        function()
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

    mmap_bundle = save_model(scaler, tmp_path / "mmap", layout="mmap-dir")
    npz_bundle = save_model(scaler, tmp_path / "npz", layout="npz-compressed")

    # Equivalence first: both layouts transform bitwise like the original.
    for bundle in (mmap_bundle, npz_bundle):
        for mmap in (True, False):
            loaded = load_model(bundle, mmap=mmap)
            assert np.array_equal(loaded.transform(X_new), expected)

    mmap_median = _median_seconds(lambda: load_model(mmap_bundle), repeats=5)
    npz_median = _median_seconds(lambda: load_model(npz_bundle), repeats=5)

    speedup = npz_median / mmap_median
    memory_timings["artifact_load_npz_compressed_s"] = npz_median
    memory_timings["artifact_load_mmap_dir_s"] = mmap_median
    memory_timings["artifact_load_speedup"] = speedup
    memory_timings["gates_enforced"] = float(GATES_ENFORCED)
    _gate("mmap_artifact_load", speedup, MMAP_LOAD_SPEEDUP_GATE, GATES_ENFORCED)


def _probe_row(task, context):
    """Touch one row of the shared matrix (module-level for pickling)."""
    return float(context["matrix"][task].sum())


def test_bench_shared_context_delivery(memory_timings):
    """One shared export + W O(1) attaches vs. W full pickle round-trips."""
    rng = np.random.default_rng(1)
    # ~32 MB context, the shape score_batch ships (feature matrices /
    # model columns); per-worker pickling serializes, pipes and
    # deserializes all of it once per worker.
    context = {"matrix": rng.standard_normal((64, 65_536))}

    def pickled_delivery():
        for _ in range(DELIVERY_WORKERS):
            pickle.loads(pickle.dumps(context))

    def shared_delivery():
        packed, block = pack_context(context)
        try:
            for _ in range(DELIVERY_WORKERS):
                # Exactly the pool-initializer attach: verify=False is
                # sanctioned while the owner holds the segment open.
                unpack_context(packed, verify=False)
                _ATTACHED_BLOCKS.pop().close()
        finally:
            block.close()

    # Equivalence: a delivered context is bitwise the exported one.
    packed, block = pack_context(context)
    try:
        rebuilt = unpack_context(packed, verify=False)
        assert np.array_equal(rebuilt["matrix"], context["matrix"])
        _ATTACHED_BLOCKS.pop().close()
    finally:
        block.close()

    pickle_median = _median_seconds(pickled_delivery, repeats=3)
    shared_median = _median_seconds(shared_delivery, repeats=3)
    assert leaked_segments() == []

    speedup = pickle_median / shared_median
    memory_timings["delivery_pickle_8_workers_s"] = pickle_median
    memory_timings["delivery_shared_8_workers_s"] = shared_median
    memory_timings["delivery_shared_speedup"] = speedup
    _gate(
        "shared_context_delivery",
        speedup,
        SHARED_DELIVERY_SPEEDUP_GATE,
        GATES_ENFORCED and _MULTI_CORE,
    )


def test_bench_shared_context_fanout(memory_timings):
    """End-to-end cold pools, recorded ungated (fork inherits initargs)."""
    rng = np.random.default_rng(2)
    context = {"matrix": rng.standard_normal((64, 65_536))}
    tasks = list(range(8))
    expected = TaskRunner("serial").map(_probe_row, tasks, context=context)
    runner = TaskRunner("process", max_workers=2)

    def fanout(mode):
        return runner.map(_probe_row, tasks, context=context, context_mode=mode)

    # Equivalence first: both delivery modes match the serial oracle.
    assert fanout("pickle") == expected
    assert fanout("shared") == expected
    assert leaked_segments() == []

    pickle_median = _median_seconds(lambda: fanout("pickle"), repeats=3, warmup=0)
    shared_median = _median_seconds(lambda: fanout("shared"), repeats=3, warmup=0)
    assert leaked_segments() == []

    memory_timings["fanout_cold_pickle_s"] = pickle_median
    memory_timings["fanout_cold_shared_s"] = shared_median
    memory_timings["fanout_cold_speedup"] = pickle_median / shared_median
    memory_timings["fanout_multi_core"] = float(_MULTI_CORE)

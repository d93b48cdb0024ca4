"""Scalar reference implementations ("oracles") of the vectorized kernels.

Each production kernel has exactly one code path.  The loops it replaced
live here and nowhere else: equivalence tests call them directly, and
whole-fit checks install them with ``monkeypatch`` to run an entire fit on
the reference path.

* :mod:`tests.oracles.nn` -- per-pixel convolution/pooling loops, the
  per-gate LSTM and the point-by-point synthetic region-map scatter.
* :mod:`tests.oracles.matching` -- event-by-event heat maps and counts,
  per-cell heat-map pooling, the row-by-row top-1 filter.
* :mod:`tests.oracles.predictors` -- the per-matrix bodies of the 17
  matching predictors (entry-loop ``dom``/``mcd``) and the per-row entropy.
* :mod:`tests.oracles.features` -- the per-matcher Phi_Beh and Phi_Mou
  bodies (with ``_safe_stats``) the population kernels replaced.
* :mod:`tests.oracles.ml` -- the recursive one-tree-at-a-time grower
  with its per-node and per-threshold split scans, the per-class linear
  descent and the per-label classifier selection.
* :mod:`tests.oracles.adapters` -- the row-wise screened adapter read
  (one dict per line, ``RecordSchema.validate`` per row) and the
  per-line parsers of the three formats.
* :mod:`tests.oracles.simulation` -- the scalar consumer of the mouse
  simulator's pre-drawn randomness blocks.
* :mod:`tests.oracles.stats` -- the row-by-row concordant/discordant
  pair count and the one-permutation-at-a-time gamma p-value.
* :mod:`tests.oracles.bundles` -- writers of the bundle forms production
  no longer writes (format-version-1 ``arrays.npz`` bundles, legacy
  ``.npz`` population files) and a reference ``mmap-dir`` writer that
  pins the bytes of the one layout it does write.
"""

"""repro -- a full reproduction of "Learning to Characterize Matching Experts" (ICDE 2021).

The package implements the MExI framework (Matching Expert Identification)
together with every substrate it depends on:

* :mod:`repro.matching` -- the human matching model: schemata, matching
  matrices, decision histories, mouse movement maps, the four expertise
  measures.
* :mod:`repro.predictors` -- matching predictors (the LRSM feature family).
* :mod:`repro.stats` -- Goodman-Kruskal gamma, bootstrap hypothesis tests.
* :mod:`repro.ml` -- classical classifiers, model selection, multi-label
  wrappers (a scikit-learn stand-in).
* :mod:`repro.nn` -- a NumPy neural-network library (LSTM, CNN, Adam).
* :mod:`repro.simulation` -- the behavioural-data simulator replacing the
  paper's human-study dataset.
* :mod:`repro.core` -- MExI itself: the 4-way expert model, the five
  feature sets with late fusion, the characterizer, baselines, expert
  filtering, ablation and feature importance.
* :mod:`repro.runtime` -- the deterministic parallel execution substrate
  (serial / process backends, bitwise-identical results).
* :mod:`repro.experiments` -- one experiment module per table and figure of
  the paper's evaluation.
* :mod:`repro.serve` -- persistent model artifacts (versioned
  ``manifest.json`` + ``arrays/`` bundles) and the batch
  characterization service plus its ``fit|score|inspect`` CLI.
* :mod:`repro.stream` -- the streaming session layer: incremental event
  ingestion, online feature maintenance, live multi-session
  characterization, checkpoints, and the ``replay`` CLI.
* :mod:`repro.kernels` -- the kernel set reported in run provenance
  (always ``"fast"``; the scalar reference loops live in ``tests/oracles``).

Quickstart
----------

>>> from repro.simulation import build_dataset
>>> from repro.core import MExICharacterizer, MExIVariant
>>> from repro.core.expert_model import characterize_population, labels_matrix
>>> dataset = build_dataset(n_po_matchers=20, n_oaei_matchers=4, random_state=0)
>>> train, test = dataset.po_matchers[:15], dataset.po_matchers[15:]
>>> profiles, thresholds = characterize_population(train)
>>> model = MExICharacterizer(variant=MExIVariant.SUB_50, feature_sets=("lrsm", "beh", "mou"))
>>> model.fit(train, labels_matrix(profiles)).predict(test).shape
(5, 4)
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "kernels",
    "matching",
    "predictors",
    "stats",
    "ml",
    "nn",
    "simulation",
    "runtime",
    "experiments",
    "serve",
    "stream",
]

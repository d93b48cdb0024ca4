"""Backend equivalence: serial is the oracle; every backend must match it bitwise.

Covers every fan-out site: chunked service scores, bootstrap p-values,
ablation Table III rows and identification folds (Table IIa), each on
every ``BACKEND_GRID`` spec (the ``process`` backend with worker counts
{1, 2, 4}).  A forest's trees grow in one lockstep and are
not a fan-out site.
"""

import numpy as np
import pytest

from repro.core.ablation import run_ablation
from repro.core.characterizer import MExICharacterizer, MExIVariant
from repro.core.expert_model import characterize_population, labels_matrix
from repro.core.features.cache import FeatureBlockCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.identification import run_identification_experiment
from repro.serve import service as service_module
from repro.serve.service import CharacterizationService
from repro.simulation.dataset import build_dataset
from repro.stats.bootstrap import two_sample_bootstrap_test

#: Every non-serial (backend, worker-count) combination under test.
BACKEND_GRID = [f"process:{workers}" for workers in (1, 2, 4)]

#: Matchers per derived extraction chunk in the service tests, so even the
#: serial oracle scores its 14-matcher cohort in several chunks.
SMALL_CHUNKS = 3


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(service_module, "MAX_CHUNK_MATCHERS", SMALL_CHUNKS)


class TestServiceEquivalence:
    """Chunked ``score_batch`` scores on every backend and worker count.

    Scoring fans its feature-extraction chunks out on the runtime, either
    the service's default or one given per call.
    """

    @pytest.fixture(scope="class")
    def scoring(self):
        dataset = build_dataset(n_po_matchers=10, n_oaei_matchers=4, random_state=3)
        train = dataset.po_matchers
        profiles, _ = characterize_population(train)
        model = MExICharacterizer(
            variant=MExIVariant.SUB_50, feature_sets=("lrsm", "beh", "mou"), random_state=3
        ).fit(train, labels_matrix(profiles))
        cohort = dataset.oaei_matchers + train
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(service_module, "MAX_CHUNK_MATCHERS", SMALL_CHUNKS)
            serial = CharacterizationService(model, runtime="serial").score_batch(cohort)
        return model, cohort, serial

    @pytest.mark.parametrize("spec", BACKEND_GRID)
    def test_scores_bitwise_identical(self, scoring, spec, small_chunks):
        model, cohort, serial = scoring
        scores = CharacterizationService(model, runtime=spec).score_batch(cohort)
        assert scores.matcher_ids == serial.matcher_ids
        assert np.array_equal(scores.labels, serial.labels)
        assert np.array_equal(scores.probabilities, serial.probabilities)

    @pytest.mark.parametrize(
        "default, per_call", [("serial", "process:2"), ("process:2", "serial")]
    )
    def test_per_call_runtime_bitwise_identical(self, scoring, small_chunks, default, per_call):
        model, cohort, serial = scoring
        service = CharacterizationService(model, runtime=default)
        scores = service.score_batch(cohort, runtime=per_call)
        assert np.array_equal(scores.probabilities, serial.probabilities)


class TestBootstrapEquivalence:
    @pytest.fixture(scope="class")
    def samples(self):
        rng = np.random.default_rng(21)
        return rng.random(30), rng.random(30) - 0.05

    @pytest.mark.parametrize("spec", BACKEND_GRID)
    @pytest.mark.parametrize("alternative", ["greater", "less", "two-sided"])
    def test_p_values_bitwise_identical(self, samples, spec, alternative):
        a, b = samples
        serial = two_sample_bootstrap_test(
            a, b, n_bootstrap=800, alternative=alternative, random_state=13
        )
        parallel = two_sample_bootstrap_test(
            a,
            b,
            n_bootstrap=800,
            alternative=alternative,
            random_state=13,
            runtime=spec,
            parallel_threshold=100,
        )
        assert serial.p_value == parallel.p_value
        assert serial.observed_difference == parallel.observed_difference

    def test_unequal_sample_sizes(self, samples):
        a, b = samples
        short_b = b[:17]
        serial = two_sample_bootstrap_test(a, short_b, n_bootstrap=600, random_state=3)
        parallel = two_sample_bootstrap_test(
            a, short_b, n_bootstrap=600, random_state=3,
            runtime="process:2", parallel_threshold=100,
        )
        assert serial.p_value == parallel.p_value

    def test_block_boundaries_do_not_change_p_values(self, samples, monkeypatch):
        # The serial matrix path draws in memory-bounded blocks; forcing
        # tiny blocks must not move the p-value by a single ulp.
        from repro.stats import bootstrap as bootstrap_mod

        a, b = samples
        reference = two_sample_bootstrap_test(a, b, n_bootstrap=500, random_state=17)
        monkeypatch.setattr(bootstrap_mod, "MATRIX_BLOCK_ELEMENTS", 64)
        blocked = two_sample_bootstrap_test(a, b, n_bootstrap=500, random_state=17)
        assert reference.p_value == blocked.p_value


class TestAblationEquivalence:
    """Table III rows must be identical on every backend and worker count.

    Runs on a deliberately small cohort with the three offline feature sets
    (seven configurations) so the whole grid stays fast.
    """

    @pytest.fixture(scope="class")
    def split(self):
        dataset = build_dataset(n_po_matchers=12, n_oaei_matchers=2, random_state=7)
        matchers = dataset.po_matchers
        train, test = matchers[:8], matchers[8:]
        train_profiles, thresholds = characterize_population(train)
        test_profiles, _ = characterize_population(test, thresholds)
        return train, labels_matrix(train_profiles), test, labels_matrix(test_profiles)

    def _rows(self, split, runtime):
        train, train_labels, test, test_labels = split
        results = run_ablation(
            train,
            train_labels,
            test,
            test_labels,
            variant=MExIVariant.SUB_50,
            feature_sets=("lrsm", "beh", "mou"),
            random_state=7,
            cache=FeatureBlockCache(),
            runtime=runtime,
        )
        return [(r.mode, r.feature_set, tuple(sorted(r.accuracies.items()))) for r in results]

    @pytest.fixture(scope="class")
    def serial_rows(self, split):
        return self._rows(split, "serial")

    @pytest.mark.parametrize("spec", BACKEND_GRID)
    def test_rows_bitwise_identical(self, split, serial_rows, spec):
        assert self._rows(split, spec) == serial_rows

    def test_row_order_is_paper_order(self, serial_rows):
        modes = [mode for mode, _, _ in serial_rows]
        assert modes == ["full"] + ["include"] * 3 + ["exclude"] * 3


class TestIdentificationEquivalence:
    """Table IIa (fold fan-out + bootstrap markers) across backends.

    Offline feature sets only, so the whole table stays fast while still
    exercising the per-fold fan-out, the shared cache and the significance
    tests.
    """

    @staticmethod
    def _config(runtime):
        return ExperimentConfig(
            n_po_matchers=14,
            n_folds=2,
            n_bootstrap=200,
            random_state=5,
            use_neural_features=False,
            runtime=runtime,
        )

    def _run(self, runtime):
        """The exact per-fold accuracies and markers of every method, and the table."""
        result = run_identification_experiment(self._config(runtime), cache=FeatureBlockCache())
        folds = [(m.method, m.per_fold_accuracies, m.significant) for m in result.methods]
        return folds, result.format_table()

    @pytest.fixture(scope="class")
    def serial_run(self):
        return self._run("serial")

    @pytest.mark.parametrize("spec", BACKEND_GRID)
    def test_tables_identical(self, serial_run, spec):
        assert self._run(spec) == serial_run

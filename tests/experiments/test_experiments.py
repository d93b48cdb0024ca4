"""Integration tests: every experiment module at tiny scale.

Tables IIa, IIb, III and IV are also pinned bitwise: each test hashes
every per-fold float and significance flag it produced (Table IV: every
top feature and its importance) with blake2b.  A method change that moves
a digest states the old and new digests, and why, in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    run_ablation_study,
    run_archetype_curves,
    run_feature_importance,
    run_generalization_experiment,
    run_identification_experiment,
    run_outcome_experiment,
    run_population_analysis,
)
from repro.experiments.identification import ACCURACY_MEASURES
from repro.experiments.reporting import format_ascii_heatmap, format_bar_chart, format_table
from repro.simulation.archetypes import Archetype


def _digest(parts) -> str:
    """blake2b over strings, flags and float arrays, in order."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, str):
            digest.update(part.encode())
        elif isinstance(part, bool):
            digest.update(b"1" if part else b"0")
        else:
            digest.update(np.asarray(part, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _methods_digest(methods) -> str:
    """Every method's per-fold accuracies and significance flags (Table II)."""
    return _digest(
        part
        for method in methods
        for measure in ACCURACY_MEASURES
        for part in (
            method.method,
            measure,
            method.per_fold_accuracies[measure],
            bool(method.significant.get(measure)),
        )
    )


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig.tiny(random_state=13)


class TestConfig:
    def test_paper_scale(self):
        config = ExperimentConfig.paper_scale()
        assert config.n_po_matchers == 106
        assert config.n_oaei_matchers == 34
        assert config.n_folds == 5

    def test_feature_sets_toggle(self):
        assert len(ExperimentConfig(use_neural_features=False).feature_sets) == 3
        assert len(ExperimentConfig(use_neural_features=True).feature_sets) == 5


class TestReporting:
    def test_format_table(self):
        text = format_table(
            [{"method": "MExI", "A_P": 0.9}], columns=("method", "A_P"), title="T"
        )
        assert "MExI" in text and "0.90" in text

    def test_format_bar_chart(self):
        text = format_bar_chart({"P": 0.5, "R": 0.25}, title="Figure")
        assert "#" in text and "P" in text

    def test_format_ascii_heatmap(self):
        grid = np.array([[0.0, 1.0], [0.5, 0.2]])
        text = format_ascii_heatmap(grid, title="heat")
        assert len(text.splitlines()) == 3


class TestPopulationAnalysis:
    def test_figures_8_and_9(self, tiny_config):
        result = run_population_analysis(tiny_config)
        assert set(result.mean_measures) == {"P", "R", "|Res|", "|Cal|"}
        assert all(0.0 <= v <= 1.0 for v in result.mean_measures.values())
        assert set(result.expert_proportions) == {"precise", "thorough", "correlated", "calibrated"}
        assert 0.0 <= result.full_expert_proportion <= 1.0
        assert "Figure 8" in result.format_figure8()
        assert "Figure 9" in result.format_figure9()
        # Section IV-C: the simulated metadata correlations exist and are finite.
        assert np.isfinite(result.personal_correlations["english_vs_recall"])


class TestArchetypeCurves:
    def test_figures_1_4_5_6(self, tiny_config):
        result = run_archetype_curves(tiny_config, compute_resolution=False)
        assert set(result.curves) == {"A", "B", "C", "D"}
        curve_a = result.archetype("A")
        curve_b = result.archetype("B")
        # Matcher A (precise & thorough) dominates Matcher B (imprecise & incomplete).
        assert curve_a.final_precision > curve_b.final_precision
        assert curve_a.final_recall > curve_b.final_recall
        # Matcher C stays incomplete.
        assert result.archetype("C").final_recall < 0.5
        # Curves have one point per decision and stay in [0, 1].
        assert curve_a.curves.n_decisions == curve_a.matcher.n_decisions
        assert curve_a.curves.recall.max() <= 1.0
        assert "heat map" in curve_a.heatmap_ascii()
        assert len(result.summary_rows()) == 4

    def test_subset_of_archetypes(self, tiny_config):
        result = run_archetype_curves(
            tiny_config, archetypes=(Archetype.A,), compute_resolution=False
        )
        assert list(result.curves) == ["A"]


class TestIdentification:
    def test_table_2a_structure(self, tiny_config):
        result = run_identification_experiment(tiny_config)
        method_names = [m.method for m in result.methods]
        for expected in ("Rand", "LRSM", "BEH", "MExI_empty", "MExI_50", "MExI_70"):
            assert expected in method_names
        for method in result.methods:
            for measure in ACCURACY_MEASURES:
                assert 0.0 <= method.mean_accuracies[measure] <= 1.0
        table = result.format_table()
        assert "MExI_50" in table
        assert result.method("MExI_50").mean_accuracies["A_P"] >= 0.0
        with pytest.raises(KeyError):
            result.method("nonexistent")
        assert _methods_digest(result.methods) == "016e1aa7b3ca0e6f15a6eba3674c20c3"


class TestGeneralization:
    def test_table_2b_structure(self, tiny_config):
        result = run_generalization_experiment(tiny_config)
        assert result.n_train == tiny_config.n_po_matchers
        assert result.n_test == tiny_config.n_oaei_matchers
        assert "MExI_50" in result.format_table()
        for method in result.methods:
            assert set(method.mean_accuracies) == set(ACCURACY_MEASURES)
        assert _methods_digest(result.methods) == "d8c9cde4603b70efd6b449e98749b6e5"


class TestAblationStudy:
    def test_table_3_structure(self, tiny_config):
        result = run_ablation_study(tiny_config)
        modes = {row["mode"] for row in result.rows()}
        assert modes == {"full", "include", "exclude"}
        include_rows = result.by_mode("include")
        assert len(include_rows) == len(tiny_config.feature_sets)
        assert "Table III" in result.format_table()
        digest = _digest(
            part
            for row in result.results
            for part in (
                row.mode,
                row.feature_set,
                [row.accuracies[measure] for measure in ACCURACY_MEASURES],
            )
        )
        assert digest == "6aacd3c4699bddf1f2ea7f264220c04b"


class TestFeatureImportance:
    def test_table_4_structure(self, tiny_config):
        result = run_feature_importance(tiny_config, top_k=2)
        assert set(result.top_features) <= {"precise", "thorough", "correlated", "calibrated"}
        assert len(result.feature_names) > 10
        # Any populated characteristic lists at most two features per set.
        for per_set in result.top_features.values():
            for features in per_set.values():
                assert 1 <= len(features) <= 2
        assert "Table IV" in result.format_table()
        digest = _digest(
            part
            for characteristic, per_set in result.top_features.items()
            for set_name, features in per_set.items()
            for part in (characteristic, set_name)
            + tuple(value for name, importance in features for value in (name, importance))
        )
        assert digest == "dc157e9b39ad8f04172cc9bafee19fbe"


class TestOutcome:
    def test_figure_10(self, tiny_config):
        result = run_outcome_experiment(tiny_config, early=False)
        assert set(result.filtering_results) == {"Conf", "Qual. Test", "Self-Assess", "MExI"}
        rows = result.rows()
        assert rows[0]["method"] == "no_filter"
        assert "Figure 10" in result.format_table()
        mexi = result.filtering_results["MExI"]
        assert mexi.n_selected >= 1
        assert 0.0 <= mexi.selected_performance["precision"] <= 1.0

    def test_figure_11_early(self, tiny_config):
        result = run_outcome_experiment(tiny_config, early=True)
        assert result.early
        assert result.early_decisions is not None and result.early_decisions >= 1
        assert "Figure 11" in result.format_table()

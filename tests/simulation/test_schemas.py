"""Tests for the synthetic matching tasks."""

from difflib import SequenceMatcher

import numpy as np
import pytest

from repro.simulation.schemas import build_oaei_task, build_po_task, build_small_task


class TestPOTask:
    def test_paper_sizes(self):
        pair, reference = build_po_task()
        assert pair.shape == (142, 46)
        assert reference.n_positives >= 30

    def test_reference_within_bounds(self):
        pair, reference = build_po_task()
        rows, cols = pair.shape
        for i, j in reference.positives:
            assert 0 <= i < rows
            assert 0 <= j < cols

    def test_deterministic_given_seed(self):
        _, a = build_po_task(random_state=5)
        _, b = build_po_task(random_state=5)
        assert a.positives == b.positives

    def test_different_seeds_shuffle_layout(self):
        _, a = build_po_task(random_state=1)
        _, b = build_po_task(random_state=2)
        assert a.positives != b.positives

    def test_unique_attribute_names(self):
        pair, _ = build_po_task()
        assert len(set(pair.source.names)) == len(pair.source.names)
        assert len(set(pair.target.names)) == len(pair.target.names)


class TestOAEITask:
    def test_paper_sizes(self):
        pair, reference = build_oaei_task()
        assert pair.shape == (121, 109)
        assert reference.n_positives >= 30

    def test_distinct_from_po(self):
        po_pair, _ = build_po_task()
        oaei_pair, _ = build_oaei_task()
        assert set(po_pair.source.names) != set(oaei_pair.source.names)


@pytest.mark.parametrize("build", [build_po_task, build_oaei_task], ids=["po", "oaei"])
def test_reference_pairs_are_name_similar(build):
    """Reference correspondences should be discoverable by a name matcher.

    Names are compared lower-cased with ``difflib``'s ratio in [0, 1].
    """
    pair, reference = build()
    similarity = np.array(
        [
            [SequenceMatcher(None, a.lower(), b.lower()).ratio() for b in pair.target.names]
            for a in pair.source.names
        ]
    )
    reference_mean = np.mean([similarity[i, j] for i, j in reference.positives])
    assert reference_mean > similarity.mean()


class TestSmallTask:
    def test_sizes(self):
        pair, reference = build_small_task(source_size=12, target_size=9)
        assert pair.shape == (12, 9)
        assert reference.n_positives >= 4

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            build_small_task(source_size=2, target_size=9)

"""``LRSMFeatures.extract_batch``: shape groups, chunked stacks, input order."""

import numpy as np
import pytest

from repro.adapters.records import SessionTrace
from repro.core.features import predictors as lrsm_module
from repro.core.features.predictors import LRSMFeatures
from repro.shard.replay import synthetic_traces
from repro.simulation.population import simulate_matcher
from repro.simulation.schemas import build_po_task
from tests.oracles.predictors import lrsm_rows


def _empty_trace() -> SessionTrace:
    """A ``(0, 0)``-shape trace with a few events and no decisions."""
    return SessionTrace(
        session_id="empty",
        shape=(0, 0),
        x=np.array([1.0, 2.0]),
        y=np.array([3.0, 4.0]),
        codes=np.array([0, 0]),
        t=np.array([0.5, 1.0]),
        d_rows=np.zeros(0, dtype=np.int64),
        d_cols=np.zeros(0, dtype=np.int64),
        d_conf=np.zeros(0),
        d_t=np.zeros(0),
    )


@pytest.fixture(scope="module")
def mixed_population():
    """6x6 synthetic traces interleaved with 142x46 PO matchers and an empty trace.

    25 PO matchers span three stacks of the default cell budget.
    """
    synthetic = [trace.to_matcher() for trace in synthetic_traces(40, seed=5, n_decisions=9)]
    pair, reference = build_po_task()
    po = [simulate_matcher(f"po-{i}", pair, reference, random_state=i) for i in range(25)]
    population = []
    for index in range(max(len(synthetic), len(po))):
        population.extend(synthetic[index : index + 1])
        population.extend(po[index : index + 1])
        if index == 17:
            population.append(_empty_trace().to_matcher())
    return population


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestLRSMBatch:
    def test_population_spans_several_chunks(self, mixed_population):
        shapes = [matcher.history.shape for matcher in mixed_population]
        po_per_chunk = lrsm_module.STACK_CELLS // (142 * 46)
        assert shapes.count((142, 46)) > 2 * po_per_chunk
        assert shapes[0] == (6, 6) and shapes[1] == (142, 46) and (0, 0) in shapes

    @pytest.mark.parametrize("cells", [None, 1, 37, 500])
    def test_rows_in_input_order_bitwise_equal_to_oracle(
        self, mixed_population, monkeypatch, cells
    ):
        if cells is not None:
            monkeypatch.setattr(lrsm_module, "STACK_CELLS", cells)
        extractor = LRSMFeatures()
        block = extractor.extract_batch(mixed_population)
        expected = lrsm_rows(
            [matcher.matrix() for matcher in mixed_population], extractor.registry.names()
        )
        assert block.matrix.shape == expected.shape
        assert _bits(block.matrix) == _bits(expected)

    def test_empty_matcher_yields_all_zero_row(self, mixed_population):
        block = LRSMFeatures().extract_batch(mixed_population)
        index = next(
            i for i, matcher in enumerate(mixed_population) if matcher.history.shape == (0, 0)
        )
        zeros = np.zeros(block.n_features)
        assert _bits(block.row(index)) == _bits(zeros)
        alone = LRSMFeatures().extract_batch([mixed_population[index]])
        assert _bits(alone.row(0)) == _bits(zeros)

    def test_empty_population(self):
        block = LRSMFeatures().extract_batch([])
        assert block.matrix.shape == (0, len(LRSMFeatures().feature_names()))

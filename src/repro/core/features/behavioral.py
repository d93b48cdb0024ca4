"""Phi_Beh(H): aggregated decision-history features.

Aggregations over confidence, decision times, revisits (mind changes) and
consensuality, following the crowd-quality-assessment literature the paper
adapts (Rzeszotarski & Kittur; Goyal et al.).  The consensus aggregates are
only available once the extractor has been fitted on the training
population (they are the "consensuality" dimension of the correlation
features).

``extract_batch`` is a population kernel over the decisions of every
matcher, concatenated once (:meth:`DecisionHistory.columns`).  Durations,
distinct pairs, mind changes and the latest decision per pair are exact
passes over that concatenation; the confidence, pace, drift and consensus
statistics are reduced per group of matchers with the same decision count,
``matrixMeanConf`` per group with the same number of selected pairs
(:mod:`repro.core.features.ragged`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.features.base import FeatureBlock, FeatureExtractor
from repro.core.features.consensus import ConsensusModel
from repro.core.features.ragged import block_stats, equal_length_blocks, offsets
from repro.matching.matcher import HumanMatcher


#: Aggregate suffixes, in the order `block_stats` returns them.
_STAT_KEYS = ("avg", "std", "min", "max")


class BehavioralFeatures(FeatureExtractor):
    """Aggregated features over the decision history (confidence, pace, revisions)."""

    set_name = "beh"
    requires_fitting = False

    def __init__(self, consensus: Optional[ConsensusModel] = None) -> None:
        self.consensus = consensus

    def fit(self, matchers: Sequence[HumanMatcher], labels: np.ndarray | None = None) -> "BehavioralFeatures":
        """Fit the consensuality model on the training population."""
        self.consensus = ConsensusModel().fit(matchers)
        return self

    def feature_names(self) -> list[str]:
        names = [self._prefixed(f"{key}Conf") for key in _STAT_KEYS]
        names += [self._prefixed(f"{key}Time") for key in _STAT_KEYS]
        names += [
            self._prefixed(name)
            for name in (
                "totalTime",
                "countDecisions",
                "countDistinctCorr",
                "countMindChange",
                "revisitRatio",
                "decisionRate",
                "matrixDensity",
                "matrixMeanConf",
                "confDrift",
                "paceDrift",
            )
        ]
        names += [self._prefixed(f"{key}Consensus") for key in _STAT_KEYS]
        return names

    def extract_batch(self, matchers: Sequence[HumanMatcher]) -> FeatureBlock:
        names = self.feature_names()
        n = len(matchers)
        matrix = np.zeros((n, len(names)))
        if not n:
            return FeatureBlock(names, matrix)
        histories = [matcher.history for matcher in matchers]
        n_decisions = np.array([len(history) for history in histories], dtype=np.int64)
        shapes = np.array([history.shape for history in histories], dtype=np.int64)
        columns = np.concatenate([history.columns() for history in histories])
        rows = columns[:, 0].astype(np.int64)
        cols = columns[:, 1].astype(np.int64)
        confidences, timestamps = columns[:, 2], columns[:, 3]
        starts, owner = offsets(n_decisions)
        decided = n_decisions > 0

        # Inter-decision times: each matcher's first decision counts from 0.
        previous = np.zeros_like(timestamps)
        previous[1:] = timestamps[:-1]
        previous[starts[decided]] = 0.0
        times = timestamps - previous
        if self.consensus is not None and self.consensus.is_fitted:
            agreements = self.consensus.agreements(rows, cols)
        else:
            agreements = None

        # Float reductions over each matcher's decisions: one (m, k) block per
        # decision count.  Temporal consistency is the drift of confidence and
        # pace between the first and the second half of a session of at
        # least four decisions (the "temporal" dimension of the correlation
        # features); consensuality aggregates need the consensus model
        # fitted on the train set.
        for members, index in equal_length_blocks(n_decisions):
            matrix[members, 0:4] = block_stats(confidences[index])
            matrix[members, 4:8] = block_stats(times[index])
            half = index.shape[1] // 2
            if half >= 2:
                early, late = index[:, :half], index[:, half:]
                matrix[members, 16] = (
                    confidences[late].mean(axis=1) - confidences[early].mean(axis=1)
                )
                matrix[members, 17] = times[late].mean(axis=1) - times[early].mean(axis=1)
            if agreements is not None:
                matrix[members, 18:22] = block_stats(agreements[index])

        # Exact aggregates.  A stable sort over (owner, row, col) puts each
        # matcher's pairs in row-major order with revisits in sequence order,
        # so the last decision of each run is the pair's latest (Eq. 1).
        order = np.lexsort((cols, rows, owner))
        sorted_owner, sorted_rows, sorted_cols = owner[order], rows[order], cols[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (
            (sorted_owner[1:] != sorted_owner[:-1])
            | (sorted_rows[1:] != sorted_rows[:-1])
            | (sorted_cols[1:] != sorted_cols[:-1])
        )
        last = np.ones(order.size, dtype=bool)
        last[:-1] = first[1:]
        distinct = np.bincount(sorted_owner[first], minlength=n)
        latest = confidences[order][last]
        selected = latest > 0
        n_selected = np.bincount(sorted_owner[last][selected], minlength=n)

        many = n_decisions >= 2
        ends = starts[many] + n_decisions[many] - 1
        matrix[many, 8] = timestamps[ends] - timestamps[starts[many]]
        matrix[:, 9] = n_decisions
        matrix[:, 10] = distinct
        mind_changes = n_decisions - distinct
        matrix[:, 11] = mind_changes
        np.divide(mind_changes, n_decisions, out=matrix[:, 12], where=decided)
        np.divide(n_decisions, matrix[:, 8], out=matrix[:, 13], where=matrix[:, 8] > 0)
        # Cells per matrix as a float: exact below 2**53 and never wraps.
        size = np.multiply(shapes[:, 0], shapes[:, 1], dtype=np.float64)
        np.divide(n_selected, size, out=matrix[:, 14], where=size > 0)
        # matrixMeanConf: the mean of the selected entries in row-major order.
        selected_confidences = latest[selected]
        for members, index in equal_length_blocks(n_selected):
            matrix[members, 15] = selected_confidences[index].mean(axis=1)
        return FeatureBlock(names, matrix)

    def config_fingerprint(self) -> str:
        consensus = (
            self.consensus.fingerprint()
            if self.consensus is not None and self.consensus.is_fitted
            else "unfitted"
        )
        return f"BehavioralFeatures:consensus={consensus}"

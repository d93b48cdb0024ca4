"""Schema-matching substrate: data model for schemata, matrices, and human behaviour.

This package implements the static and dynamic human matching model of
Section II of the paper:

* :mod:`repro.matching.schema` -- schemata / ontologies as trees of elements.
* :mod:`repro.matching.matrix` -- the matching matrix ``M``.
* :mod:`repro.matching.correspondence` -- correspondences, matches (``sigma``)
  and reference matches (``Me``).
* :mod:`repro.matching.history` -- the decision history ``H`` (Eq. 1).
* :mod:`repro.matching.mouse` -- the movement map ``G`` and heat maps.
* :mod:`repro.matching.matcher` -- a human matcher ``D = (H, G)``.
* :mod:`repro.matching.metrics` -- the four expertise measures (Eqs. 2-5)
  and accumulated (elapsed) curves.
* :mod:`repro.matching.preprocessing` -- warm-up and outlier filtering.
"""

from repro.matching.schema import Attribute, Schema, SchemaPair
from repro.matching.matrix import MatchingMatrix
from repro.matching.correspondence import Correspondence, Match, ReferenceMatch
from repro.matching.history import Decision, DecisionHistory
from repro.matching.mouse import MouseEvent, MouseEventType, MovementMap, HeatMap
from repro.matching.matcher import HumanMatcher, MatcherMetadata
from repro.matching.metrics import (
    precision,
    recall,
    f_measure,
    resolution,
    calibration,
    MatcherPerformance,
    evaluate_matcher,
    accumulated_curves,
)
from repro.matching.preprocessing import PreprocessingConfig, preprocess_history

__all__ = [
    "Attribute",
    "Schema",
    "SchemaPair",
    "MatchingMatrix",
    "Correspondence",
    "Match",
    "ReferenceMatch",
    "Decision",
    "DecisionHistory",
    "MouseEvent",
    "MouseEventType",
    "MovementMap",
    "HeatMap",
    "HumanMatcher",
    "MatcherMetadata",
    "precision",
    "recall",
    "f_measure",
    "resolution",
    "calibration",
    "MatcherPerformance",
    "evaluate_matcher",
    "accumulated_curves",
    "PreprocessingConfig",
    "preprocess_history",
]

"""The paper's contribution: defining and *measuring* usage modalities.

The TeraGrid could see jobs, users, accounts and charges — but not what its
users were *trying to do*.  This package defines the modality taxonomy
(:mod:`~repro.core.modalities`), resolves identities in the central
accounting stream (:mod:`~repro.core.records`), classifies usage into
modalities with and without the paper's proposed job-attribute
instrumentation (:mod:`~repro.core.classifier`), aggregates usage metrics
(:mod:`~repro.core.metrics`, :mod:`~repro.core.timeseries`), models the
survey channel for the "why" (:mod:`~repro.core.survey`), scores the
measurement system against simulation ground truth
(:mod:`~repro.core.evaluation`) and renders the tables/figures
(:mod:`~repro.core.report`).
"""

from repro.core.modalities import Modality, MODALITY_TAXONOMY, ModalityDescription
from repro.core.records import IdentityView, build_identity_views
from repro.core.classifier import (
    AttributeClassifier,
    ClassifierConfig,
    Classification,
    HeuristicClassifier,
)
from repro.core.metrics import ModalityMetrics, compute_metrics
from repro.core.timeseries import quarterly_user_counts
from repro.core.survey import SurveyInstrument, SurveyResult
from repro.core.evaluation import ConfusionSummary, score_classification
from repro.core import report

__all__ = [
    "AttributeClassifier",
    "Classification",
    "ClassifierConfig",
    "ConfusionSummary",
    "HeuristicClassifier",
    "IdentityView",
    "MODALITY_TAXONOMY",
    "Modality",
    "ModalityDescription",
    "ModalityMetrics",
    "SurveyInstrument",
    "SurveyResult",
    "build_identity_views",
    "compute_metrics",
    "quarterly_user_counts",
    "report",
    "score_classification",
]

"""Time-resolved modality measurements (figure F1: growth by quarter)."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.classifier import AttributeClassifier, ClassifierConfig
from repro.core.modalities import Modality
from repro.infra.accounting import UsageRecord
from repro.infra.units import QUARTER

__all__ = ["quarterly_user_counts"]


def _bucket_of(t: float, bucket: float) -> int:
    return int(t // bucket)


def quarterly_user_counts(
    records: Iterable[UsageRecord],
    classifier: Optional[AttributeClassifier] = None,
    bucket: float = QUARTER,
) -> dict[int, dict[Modality, int]]:
    """Users per primary modality, re-measured within each time bucket.

    Each bucket is classified independently from the records whose *end time*
    falls inside it — exactly how a quarterly operations report would be
    produced from the accounting database.
    """
    classifier = classifier or AttributeClassifier(ClassifierConfig())
    by_bucket: dict[int, list[UsageRecord]] = {}
    for record in records:
        by_bucket.setdefault(_bucket_of(record.end_time, bucket), []).append(record)
    series: dict[int, dict[Modality, int]] = {}
    for index in sorted(by_bucket):
        classification = classifier.classify(by_bucket[index])
        series[index] = classification.users_by_modality()
    return series

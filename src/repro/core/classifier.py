"""Modality classification from accounting records.

Two classifiers implement the paper's before/after story:

* :class:`AttributeClassifier` — assumes the proposed instrumentation is in
  place: jobs carry submission-interface, gateway-user, ensemble/workflow,
  co-allocation and interactive attributes.  Attribute-labelled jobs are
  assigned directly; only the batch-vs-exploratory split still relies on
  behavioural statistics (no attribute can reveal intent).
* :class:`HeuristicClassifier` — the pre-instrumentation world: attributes
  are ignored entirely and every signal must be inferred from structural
  record fields (timing coincidences, submission bursts, queue names,
  community-account membership).  Its failure modes — gateway-user collapse
  above all — are what motivated the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional

from repro.core.modalities import MODALITY_ORDER, Modality
from repro.core.records import (
    IdentityView,
    build_identity_views,
    burst_membership,
)
from repro.infra.accounting import UsageRecord
from repro.infra.job import AttributeKeys, JobState
from repro.infra.units import MINUTE

__all__ = [
    "ClassifierConfig",
    "Classification",
    "AttributeClassifier",
    "HeuristicClassifier",
]

#: Start order: start time, ties broken by job id.
_START_ORDER = attrgetter("start_time", "job_id")


@dataclass(frozen=True)
class ClassifierConfig:
    """Thresholds for the behavioural heuristics.

    Defaults follow the workload-modelling rules of thumb: porting activity
    is minutes-scale, small, and failure-prone; production batch is
    hours-scale and reliable.
    """

    #: residual jobs split: exploratory if median runtime below this...
    exploratory_max_median_elapsed: float = 30 * MINUTE
    #: ...and either failures are common or everything is tiny
    exploratory_min_failure_fraction: float = 0.15
    exploratory_max_median_cores: float = 4.0
    #: submission-burst detection (ensemble signature)
    burst_window: float = 30 * MINUTE
    burst_min_size: int = 5
    #: heuristic coupled detection: multi-resource starts within epsilon
    coupled_start_epsilon: float = 2 * MINUTE


@dataclass
class Classification:
    """The output of a classifier run."""

    job_labels: dict[int, Modality]
    identity_modalities: dict[str, set[Modality]] = field(default_factory=dict)
    identity_primary: dict[str, Modality] = field(default_factory=dict)
    views: dict[str, IdentityView] = field(default_factory=dict)

    def users_by_modality(self) -> dict[Modality, int]:
        """Identities per *primary* modality (the paper's headline count)."""
        counts = {m: 0 for m in Modality}
        for modality in self.identity_primary.values():
            counts[modality] += 1
        return counts

    @property
    def n_identities(self) -> int:
        return len(self.identity_primary)

    def coverage(self, records: Iterable[UsageRecord]) -> tuple[int, int]:
        """(labeled, total) over ``records`` — the oracle's totals hook.

        A sane classification labels every record it was shown exactly once:
        ``labeled == total``.  Anything else means records were dropped or
        invented somewhere between accounting and classification.
        """
        total = 0
        labeled = 0
        for record in records:
            total += 1
            if record.job_id in self.job_labels:
                labeled += 1
        return labeled, total


def _median(values: list) -> float:
    """The median of ``values`` (sorted in place), as ``numpy.median`` gives it.

    The middle element for an odd count, the mean ``(a + b) / 2`` of the
    two middle ones for an even count: the same IEEE result either way.
    """
    values.sort()
    middle = len(values) // 2
    if len(values) % 2:
        return float(values[middle])
    return (values[middle - 1] + values[middle]) / 2


def _residual_statistics(
    residual: list[UsageRecord],
) -> tuple[float, float, float]:
    """``(median elapsed, failure fraction, median cores)`` of ``residual``.

    The median elapsed time is over the jobs that started, and 0.0 when
    none did; failures are FAILED and KILLED_WALLTIME jobs.
    """
    elapsed = [
        r.end_time - r.start_time for r in residual if r.start_time is not None
    ]
    failed = sum(
        1 for r in residual
        if r.final_state is JobState.FAILED
        or r.final_state is JobState.KILLED_WALLTIME
    )
    return (
        _median(elapsed) if elapsed else 0.0,
        failed / len(residual),
        _median([r.cores for r in residual]),
    )


def _split_residual(
    residual: list[UsageRecord], config: ClassifierConfig
) -> Modality:
    """Batch vs exploratory for an identity's unlabelled jobs."""
    median_elapsed, failure_fraction, median_cores = _residual_statistics(residual)
    short = median_elapsed <= config.exploratory_max_median_elapsed
    failure_prone = failure_fraction >= config.exploratory_min_failure_fraction
    tiny = median_cores <= config.exploratory_max_median_cores
    if short and (failure_prone or tiny):
        return Modality.EXPLORATORY
    return Modality.BATCH


def _settle(
    view: IdentityView,
    labels: list[Optional[Modality]],
    config: ClassifierConfig,
    result: Classification,
) -> None:
    """Enter one identity's job labels, modality set and primary modality.

    ``labels`` aligns with ``view.records``; None marks a residual job, and
    the residual jobs all take batch or exploratory from their features.
    The primary modality has the most jobs, then the most NU, then comes
    first in taxonomy order.
    """
    residual = [r for r, label in zip(view.records, labels) if label is None]
    residual_label = _split_residual(residual, config) if residual else None
    job_labels = result.job_labels
    jobs: dict[Modality, int] = {}
    nu: dict[Modality, float] = {}
    for record, label in zip(view.records, labels):
        if label is None:
            label = residual_label
        job_labels[record.job_id] = label
        jobs[label] = jobs.get(label, 0) + 1
        nu[label] = nu.get(label, 0.0) + record.charged_nu
    result.identity_modalities[view.identity] = set(jobs)
    result.identity_primary[view.identity] = max(
        jobs, key=lambda m: (jobs[m], nu[m], -MODALITY_ORDER.index(m))
    )


class AttributeClassifier:
    """Classification with the paper's instrumentation in place."""

    def __init__(self, config: Optional[ClassifierConfig] = None) -> None:
        self.config = config or ClassifierConfig()

    def label_job(self, record: UsageRecord) -> Optional[Modality]:
        """Attribute-determined label, or None for residual (batch/expl.)."""
        attrs = record.attributes
        if AttributeKeys.COALLOCATION_ID in attrs:
            return Modality.COUPLED
        if attrs.get(AttributeKeys.INTERACTIVE) or record.queue_name == "interactive":
            return Modality.VIZ
        if attrs.get(AttributeKeys.SUBMIT_INTERFACE) == "gateway":
            return Modality.GATEWAY
        if AttributeKeys.ENSEMBLE_ID in attrs or AttributeKeys.WORKFLOW_ID in attrs:
            return Modality.ENSEMBLE
        return None

    def classify(self, records: Iterable[UsageRecord]) -> Classification:
        views = build_identity_views(records, use_attributes=True)
        result = Classification(job_labels={}, views=views)
        for view in views.values():
            labels = [self.label_job(record) for record in view.records]
            _settle(view, labels, self.config, result)
        return result


class HeuristicClassifier:
    """Classification from a pre-instrumentation accounting stream.

    ``known_community_accounts`` reflects what TeraGrid *did* know before the
    instrumentation: which allocations were community (gateway) awards.  Jobs
    on those accounts are gateway usage — but every gateway's users collapse
    onto its single community identity.
    """

    def __init__(
        self,
        config: Optional[ClassifierConfig] = None,
        known_community_accounts: Optional[set[str]] = None,
    ) -> None:
        self.config = config or ClassifierConfig()
        self.known_community_accounts = known_community_accounts or set()

    def classify(self, records: Iterable[UsageRecord]) -> Classification:
        # Reads no attribute, so it classifies the records as given.
        views = build_identity_views(records, use_attributes=False)
        config = self.config
        community = self.known_community_accounts
        result = Classification(job_labels={}, views=views)
        for view in views.values():
            ordered = view.records  # already in submission order
            coupled_ids = self._detect_coupled(ordered)
            bursts = burst_membership(
                ordered, config.burst_window, config.burst_min_size
            )
            labels: list[Optional[Modality]] = []
            for record, in_burst in zip(ordered, bursts):
                if record.job_id in coupled_ids:
                    label = Modality.COUPLED
                elif record.queue_name == "interactive":
                    label = Modality.VIZ
                elif record.account in community:
                    label = Modality.GATEWAY
                elif in_burst:
                    label = Modality.ENSEMBLE
                else:
                    label = None
                labels.append(label)
            _settle(view, labels, config, result)
        return result

    def _detect_coupled(self, ordered: list[UsageRecord]) -> set[int]:
        """Job ids whose starts coincide across distinct resources.

        The structural fingerprint of a co-allocated run: the same user's
        jobs starting within ``coupled_start_epsilon`` of each other on
        different machines with the same requested walltime.
        """
        started = [r for r in ordered if r.start_time is not None]
        started.sort(key=_START_ORDER)
        coupled: set[int] = set()
        epsilon = self.config.coupled_start_epsilon
        i = 0
        while i < len(started):
            first = started[i]
            j = i + 1
            while (
                j < len(started)
                and started[j].start_time - first.start_time <= epsilon
                and started[j].requested_walltime == first.requested_walltime
            ):
                j += 1
            if j - i >= 2 and len({r.resource for r in started[i:j]}) >= 2:
                coupled.update(r.job_id for r in started[i:j])
            i = j
        return coupled

"""A straightforward reference for the measurement pipeline.

The classifiers and :func:`~repro.core.metrics.compute_metrics` in
``repro.core`` are written for speed: they group the records as given, read
each record once per pass, sort each identity once and take medians over
sorted lists.  This module keeps the plain version they replaced, for the
differential tests in ``test_reference_pipeline.py``:

* the heuristic classifier works on copies of the records with their
  attributes removed, so it cannot read one;
* the residual statistics come from numpy arrays and ``numpy.median``;
* every step that needs submission order sorts for itself.

It shares only plain containers and constants with ``repro.core``.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.classifier import Classification, ClassifierConfig
from repro.core.metrics import ModalityMetrics, gini
from repro.core.modalities import MODALITY_ORDER, Modality
from repro.core.records import IdentityView
from repro.infra.accounting import UsageRecord
from repro.infra.job import AttributeKeys, JobState


def resolve_identity(record: UsageRecord, use_attributes: bool = True) -> str:
    if use_attributes:
        gateway_user = record.attributes.get(AttributeKeys.GATEWAY_USER)
        if gateway_user is not None:
            gateway = record.attributes.get(AttributeKeys.GATEWAY_NAME, "gateway")
            return f"{gateway}:{gateway_user}"
    return record.user


def strip_attributes(records: Iterable[UsageRecord]) -> list[UsageRecord]:
    """Copies of ``records`` without attributes (``field_of_science`` kept)."""
    return [
        UsageRecord(
            job_id=record.job_id,
            user=record.user,
            account=record.account,
            resource=record.resource,
            queue_name=record.queue_name,
            cores=record.cores,
            requested_walltime=record.requested_walltime,
            submit_time=record.submit_time,
            start_time=record.start_time,
            end_time=record.end_time,
            final_state=record.final_state,
            charged_nu=record.charged_nu,
            attributes={},
            field_of_science=record.field_of_science,
        )
        for record in records
    ]


def residual_statistics(
    records: list[UsageRecord],
) -> tuple[float, float, float]:
    """``(median elapsed, failure fraction, median cores)`` from numpy
    arrays, in any record order."""
    elapsed = np.array([r.elapsed for r in records if r.ran], dtype=float)
    cores = np.array([r.cores for r in records], dtype=float)
    bad = sum(
        1
        for r in records
        if r.final_state in (JobState.FAILED, JobState.KILLED_WALLTIME)
    )
    return (
        float(np.median(elapsed)) if elapsed.size else 0.0,
        bad / len(records),
        float(np.median(cores)),
    )


def _submission_sorted(records: list[UsageRecord]) -> list[UsageRecord]:
    return sorted(records, key=lambda r: (r.submit_time, r.job_id))


def burst_membership(
    records: list[UsageRecord], window: float, min_size: int
) -> list[bool]:
    ordered = _submission_sorted(records)
    if ordered != records:
        raise ValueError("records must be given in submission order")
    in_burst = [False] * len(ordered)
    if len(ordered) < min_size:
        return in_burst
    run_start = 0
    for i in range(1, len(ordered) + 1):
        boundary = (
            i == len(ordered)
            or ordered[i].cores != ordered[i - 1].cores
            or ordered[i].submit_time - ordered[i - 1].submit_time > window
        )
        if boundary:
            if i - run_start >= min_size:
                for k in range(run_start, i):
                    in_burst[k] = True
            run_start = i
    return in_burst


def build_identity_views(
    records: Iterable[UsageRecord], use_attributes: bool = True
) -> dict[str, IdentityView]:
    views: dict[str, IdentityView] = {}
    for record in records:
        identity = resolve_identity(record, use_attributes=use_attributes)
        views.setdefault(identity, IdentityView(identity)).records.append(record)
    for view in views.values():
        view.records.sort(key=lambda r: (r.submit_time, r.job_id))
    return views


def _split_residual(
    residual: list[UsageRecord], config: ClassifierConfig
) -> Modality:
    median_elapsed, failure_fraction, median_cores = residual_statistics(
        residual
    )
    short = median_elapsed <= config.exploratory_max_median_elapsed
    failure_prone = failure_fraction >= config.exploratory_min_failure_fraction
    tiny = median_cores <= config.exploratory_max_median_cores
    if short and (failure_prone or tiny):
        return Modality.EXPLORATORY
    return Modality.BATCH


def _pick_primary(view: IdentityView, labels: dict[int, Modality]) -> Modality:
    per_modality_jobs: dict[Modality, int] = {}
    per_modality_nu: dict[Modality, float] = {}
    for record in view.records:
        modality = labels[record.job_id]
        per_modality_jobs[modality] = per_modality_jobs.get(modality, 0) + 1
        per_modality_nu[modality] = (
            per_modality_nu.get(modality, 0.0) + record.charged_nu
        )
    return max(
        per_modality_jobs,
        key=lambda m: (
            per_modality_jobs[m],
            per_modality_nu[m],
            -MODALITY_ORDER.index(m),
        ),
    )


def _finish(
    views: dict[str, IdentityView],
    labelled: dict[str, tuple[dict[int, Modality], list[UsageRecord]]],
    config: ClassifierConfig,
) -> Classification:
    """Split each identity's residual, then take its modalities and primary."""
    job_labels: dict[int, Modality] = {}
    identity_modalities: dict[str, set[Modality]] = {}
    identity_primary: dict[str, Modality] = {}
    for identity, view in views.items():
        labels, residual = labelled[identity]
        job_labels.update(labels)
        if residual:
            residual_label = _split_residual(residual, config)
            for record in residual:
                job_labels[record.job_id] = residual_label
        identity_modalities[identity] = {
            job_labels[r.job_id] for r in view.records
        }
        identity_primary[identity] = _pick_primary(view, job_labels)
    return Classification(
        job_labels=job_labels,
        identity_modalities=identity_modalities,
        identity_primary=identity_primary,
        views=views,
    )


def label_job(record: UsageRecord) -> Optional[Modality]:
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


def attribute_classify(
    records: Iterable[UsageRecord], config: Optional[ClassifierConfig] = None
) -> Classification:
    config = config or ClassifierConfig()
    views = build_identity_views(records, use_attributes=True)
    labelled = {}
    for identity, view in views.items():
        labels: dict[int, Modality] = {}
        residual: list[UsageRecord] = []
        for record in view.records:
            label = label_job(record)
            if label is None:
                residual.append(record)
            else:
                labels[record.job_id] = label
        labelled[identity] = labels, residual
    return _finish(views, labelled, config)


def detect_coupled(
    ordered: list[UsageRecord], config: ClassifierConfig
) -> set[int]:
    started = [r for r in ordered if r.ran]
    started.sort(key=lambda r: (r.start_time, r.job_id))
    coupled: set[int] = set()
    i = 0
    while i < len(started):
        group = [started[i]]
        j = i + 1
        while (
            j < len(started)
            and started[j].start_time - started[i].start_time
            <= config.coupled_start_epsilon
            and started[j].requested_walltime == started[i].requested_walltime
        ):
            group.append(started[j])
            j += 1
        if len({r.resource for r in group}) >= 2:
            coupled.update(r.job_id for r in group)
        i = j if j > i + 1 else i + 1
    return coupled


def heuristic_classify(
    records: Iterable[UsageRecord],
    known_community_accounts: frozenset[str] = frozenset(),
    config: Optional[ClassifierConfig] = None,
) -> Classification:
    config = config or ClassifierConfig()
    views = build_identity_views(strip_attributes(records), use_attributes=False)
    labelled = {}
    for identity, view in views.items():
        ordered = view.records
        coupled_ids = detect_coupled(ordered, config)
        bursts = burst_membership(
            ordered, config.burst_window, config.burst_min_size
        )
        labels: dict[int, Modality] = {}
        residual: list[UsageRecord] = []
        for record, in_burst in zip(ordered, bursts):
            if record.job_id in coupled_ids:
                labels[record.job_id] = Modality.COUPLED
            elif record.queue_name == "interactive":
                labels[record.job_id] = Modality.VIZ
            elif record.account in known_community_accounts:
                labels[record.job_id] = Modality.GATEWAY
            elif in_burst:
                labels[record.job_id] = Modality.ENSEMBLE
            else:
                residual.append(record)
        labelled[identity] = labels, residual
    return _finish(views, labelled, config)


def compute_metrics(
    records: Iterable[UsageRecord], classification: Classification
) -> ModalityMetrics:
    metrics = ModalityMetrics(
        users={m: 0 for m in MODALITY_ORDER},
        jobs={m: 0 for m in MODALITY_ORDER},
        nu={m: 0.0 for m in MODALITY_ORDER},
        job_sizes={m: [] for m in MODALITY_ORDER},
        wait_times={m: [] for m in MODALITY_ORDER},
    )
    per_identity_nu: dict[str, float] = {}
    for record in records:
        modality = classification.job_labels[record.job_id]
        metrics.jobs[modality] += 1
        metrics.nu[modality] += record.charged_nu
        metrics.job_sizes[modality].append(record.cores)
        if record.wait_time is not None:
            metrics.wait_times[modality].append(record.wait_time)
        site = metrics.by_site_nu.setdefault(record.resource, {})
        site[modality] = site.get(modality, 0.0) + record.charged_nu
    for modality in classification.identity_primary.values():
        metrics.users[modality] += 1
    for identity, view in classification.views.items():
        per_identity_nu[identity] = sum(r.charged_nu for r in view.records)
    if per_identity_nu:
        metrics.usage_gini = gini(per_identity_nu.values())
    return metrics

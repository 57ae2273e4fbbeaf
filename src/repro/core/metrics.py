"""Usage metrics by modality (the numbers the paper's tables report)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.classifier import Classification
from repro.core.modalities import MODALITY_ORDER, Modality
from repro.infra.accounting import UsageRecord

__all__ = ["ModalityMetrics", "compute_metrics", "gini"]


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative usage distribution (0=equal)."""
    array = np.sort(np.asarray(list(values), dtype=float))
    if array.size == 0:
        raise ValueError("gini of an empty sequence")
    if np.any(array < 0):
        raise ValueError("gini requires non-negative values")
    total = array.sum()
    if total == 0:
        return 0.0
    n = array.size
    # Standard rank formula: G = (2*sum(i*x_i)/ (n*sum(x)) ) - (n+1)/n
    ranks = np.arange(1, n + 1)
    return float(2.0 * np.sum(ranks * array) / (n * total) - (n + 1) / n)


@dataclass
class ModalityMetrics:
    """Aggregates per modality from one classified record set."""

    users: dict[Modality, int] = field(default_factory=dict)
    jobs: dict[Modality, int] = field(default_factory=dict)
    nu: dict[Modality, float] = field(default_factory=dict)
    by_site_nu: dict[str, dict[Modality, float]] = field(default_factory=dict)
    job_sizes: dict[Modality, list[int]] = field(default_factory=dict)
    wait_times: dict[Modality, list[float]] = field(default_factory=dict)
    usage_gini: float = 0.0

    @property
    def total_nu(self) -> float:
        return sum(self.nu.values())

    @property
    def total_jobs(self) -> int:
        return sum(self.jobs.values())

    def jobs_per_user(self, modality: Modality) -> float:
        users = self.users.get(modality, 0)
        if users == 0:
            return 0.0
        return self.jobs.get(modality, 0) / users

    def nu_share(self, modality: Modality) -> float:
        total = self.total_nu
        if total == 0:
            return 0.0
        return self.nu.get(modality, 0.0) / total


def compute_metrics(
    records: Iterable[UsageRecord], classification: Classification
) -> ModalityMetrics:
    """Fold classified records into the per-modality aggregates.

    ``records`` must be the same set the classification was computed over
    (every record's job id needs a label).  Sums run in record order.
    """
    labels = classification.job_labels
    jobs = {m: 0 for m in MODALITY_ORDER}
    nu = {m: 0.0 for m in MODALITY_ORDER}
    job_sizes: dict[Modality, list[int]] = {m: [] for m in MODALITY_ORDER}
    wait_times: dict[Modality, list[float]] = {m: [] for m in MODALITY_ORDER}
    by_site_nu: dict[str, dict[Modality, float]] = {}
    for record in records:
        try:
            modality = labels[record.job_id]
        except KeyError:
            raise ValueError(
                f"record for job {record.job_id} has no classification label"
            ) from None
        jobs[modality] += 1
        nu[modality] += record.charged_nu
        job_sizes[modality].append(record.cores)
        if record.start_time is not None:
            wait_times[modality].append(record.start_time - record.submit_time)
        site = by_site_nu.get(record.resource)
        if site is None:
            site = by_site_nu[record.resource] = {}
        site[modality] = site.get(modality, 0.0) + record.charged_nu
    users = {m: 0 for m in MODALITY_ORDER}
    for modality in classification.identity_primary.values():
        users[modality] += 1
    metrics = ModalityMetrics(
        users=users,
        jobs=jobs,
        nu=nu,
        by_site_nu=by_site_nu,
        job_sizes=job_sizes,
        wait_times=wait_times,
    )
    if classification.views:
        metrics.usage_gini = gini(
            sum(r.charged_nu for r in view.records)
            for view in classification.views.values()
        )
    return metrics

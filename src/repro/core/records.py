"""Measurement-side views over the central accounting stream.

Classification needs two things the raw record list does not give directly:
an *identity resolution* step (who is the end user behind each record —
the crux of the gateway measurement problem) and per-identity *feature
extraction* (the behavioural statistics heuristics operate on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.infra.accounting import UsageRecord
from repro.infra.job import AttributeKeys, JobState

__all__ = [
    "resolve_identity",
    "IdentityView",
    "RecordFeatures",
    "build_identity_views",
    "strip_attributes",
]


def resolve_identity(record: UsageRecord, use_attributes: bool = True) -> str:
    """The end-user identity a record is attributed to.

    With instrumentation, a tagged gateway job resolves to
    ``"<gateway>:<end user>"``; everything else (including *untagged*
    gateway jobs) resolves to the local account user.  Without
    instrumentation all gateway users collapse onto the community user —
    the measurement gap the paper is about.
    """
    if use_attributes:
        gateway_user = record.attributes.get(AttributeKeys.GATEWAY_USER)
        if gateway_user is not None:
            gateway = record.attributes.get(AttributeKeys.GATEWAY_NAME, "gateway")
            return f"{gateway}:{gateway_user}"
    return record.user


def strip_attributes(records: Iterable[UsageRecord]) -> list[UsageRecord]:
    """Copies of ``records`` with the instrumentation attributes removed.

    Used to evaluate what measurement can do from a *pre-instrumentation*
    accounting stream (experiment T3): the structural fields remain, the
    proposed job attributes disappear.
    """
    stripped = []
    for record in records:
        stripped.append(
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
                # The allocation's field predates the proposed per-job
                # attributes; pre-instrumentation accounting had it too.
                field_of_science=record.field_of_science,
            )
        )
    return stripped


@dataclass
class RecordFeatures:
    """Behavioural statistics of one identity's records."""

    n_jobs: int
    median_elapsed: float
    median_cores: float
    max_cores: int
    failure_fraction: float  # FAILED or KILLED_WALLTIME
    cancelled_fraction: float
    interactive_fraction: float
    total_nu: float
    resources: tuple[str, ...]
    burst_fraction: float  # jobs submitted in bursts of similar jobs

    @classmethod
    def from_records(
        cls,
        records: list[UsageRecord],
        burst_window: float = 1800.0,
        burst_min_size: int = 5,
    ) -> "RecordFeatures":
        if not records:
            raise ValueError("cannot build features from zero records")
        elapsed = np.array([r.elapsed for r in records if r.ran], dtype=float)
        cores = np.array([r.cores for r in records], dtype=float)
        bad = sum(
            1
            for r in records
            if r.final_state in (JobState.FAILED, JobState.KILLED_WALLTIME)
        )
        cancelled = sum(
            1 for r in records if r.final_state is JobState.CANCELLED
        )
        interactive = sum(1 for r in records if r.queue_name == "interactive")
        return cls(
            n_jobs=len(records),
            median_elapsed=float(np.median(elapsed)) if elapsed.size else 0.0,
            median_cores=float(np.median(cores)),
            max_cores=int(cores.max()),
            failure_fraction=bad / len(records),
            cancelled_fraction=cancelled / len(records),
            interactive_fraction=interactive / len(records),
            total_nu=sum(r.charged_nu for r in records),
            resources=tuple(sorted({r.resource for r in records})),
            burst_fraction=_burst_fraction(records, burst_window, burst_min_size),
        )


def burst_membership(
    records: list[UsageRecord], window: float, min_size: int
) -> list[bool]:
    """Which of ``records`` belong to a same-size submission burst.

    The submission-burst signature of ensembles/parameter sweeps: runs of at
    least ``min_size`` jobs with identical core counts whose consecutive
    submissions are less than ``window`` apart.  Input order must be
    submission order; the returned flags align with it.
    """
    ordered = sorted(records, key=lambda r: (r.submit_time, r.job_id))
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


def _burst_fraction(
    records: list[UsageRecord], window: float, min_size: int
) -> float:
    ordered = sorted(records, key=lambda r: (r.submit_time, r.job_id))
    flags = burst_membership(ordered, window, min_size)
    return sum(flags) / len(flags) if flags else 0.0


@dataclass
class IdentityView:
    """All records of one resolved identity, in submission order."""

    identity: str
    records: list[UsageRecord] = field(default_factory=list)


def build_identity_views(
    records: Iterable[UsageRecord], use_attributes: bool = True
) -> dict[str, IdentityView]:
    """Group records by resolved identity, each group in submission order.

    Identities appear in the order of their first record.
    """
    views: dict[str, IdentityView] = {}
    for record in records:
        identity = resolve_identity(record, use_attributes=use_attributes)
        views.setdefault(identity, IdentityView(identity)).records.append(record)
    for view in views.values():
        view.records.sort(key=lambda r: (r.submit_time, r.job_id))
    return views

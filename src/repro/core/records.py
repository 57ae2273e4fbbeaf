"""Measurement-side views over the central accounting stream.

Classification needs two things the raw record list does not give directly:
an *identity resolution* step (who is the end user behind each record —
the crux of the gateway measurement problem) and each identity's records in
submission order, where the heuristics look for submission bursts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, le
from typing import Iterable

from repro.infra.accounting import UsageRecord
from repro.infra.job import AttributeKeys

__all__ = [
    "resolve_identity",
    "IdentityView",
    "build_identity_views",
]

#: Submission order: submit time, ties broken by job id.
_SUBMISSION_ORDER = attrgetter("submit_time", "job_id")


def resolve_identity(record: UsageRecord, use_attributes: bool = True) -> str:
    """The end-user identity a record is attributed to.

    With instrumentation, a tagged gateway job resolves to
    ``"<gateway>:<end user>"``; everything else (including *untagged*
    gateway jobs) resolves to the local account user.  Without
    instrumentation all gateway users collapse onto the community user —
    the measurement gap the paper is about.  ``use_attributes=False`` reads
    no attribute.
    """
    if use_attributes:
        gateway_user = record.attributes.get(AttributeKeys.GATEWAY_USER)
        if gateway_user is not None:
            gateway = record.attributes.get(AttributeKeys.GATEWAY_NAME, "gateway")
            return f"{gateway}:{gateway_user}"
    return record.user


def burst_membership(
    records: list[UsageRecord], window: float, min_size: int
) -> list[bool]:
    """Which of ``records`` belong to a same-size submission burst.

    The submission-burst signature of ensembles/parameter sweeps: runs of at
    least ``min_size`` jobs with identical core counts whose consecutive
    submissions are less than ``window`` apart.  Input order must be
    submission order (submit time, ties broken by job id); the returned
    flags align with it.
    """
    keys = list(map(_SUBMISSION_ORDER, records))
    if not all(map(le, keys, keys[1:])):
        raise ValueError("records must be given in submission order")
    in_burst = [False] * len(records)
    if len(records) < min_size:
        return in_burst
    run_start = 0
    for i in range(1, len(records) + 1):
        boundary = (
            i == len(records)
            or records[i].cores != records[i - 1].cores
            or records[i].submit_time - records[i - 1].submit_time > window
        )
        if boundary:
            if i - run_start >= min_size:
                for k in range(run_start, i):
                    in_burst[k] = True
            run_start = i
    return in_burst


@dataclass
class IdentityView:
    """All records of one resolved identity, in submission order."""

    identity: str
    records: list[UsageRecord] = field(default_factory=list)


def build_identity_views(
    records: Iterable[UsageRecord], use_attributes: bool = True
) -> dict[str, IdentityView]:
    """Group records by resolved identity, each group in submission order.

    Identities appear in the order of their first record.  The records are
    the given ones, not copies; ``use_attributes=False`` reads no attribute.
    """
    views: dict[str, IdentityView] = {}
    for record in records:
        identity = resolve_identity(record, use_attributes=use_attributes)
        view = views.get(identity)
        if view is None:
            view = views[identity] = IdentityView(identity)
        view.records.append(record)
    for view in views.values():
        view.records.sort(key=_SUBMISSION_ORDER)
    return views

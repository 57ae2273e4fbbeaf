"""Test-only reference schedulers: the plain code the fast paths replaced.

The production scheduler avoids work that cannot change a decision.  These
subclasses put back the direct versions, so differential tests can run
both side by side and demand identical starts:

* ``can_start_now`` builds a capacity profile for every candidate, and
  takes its node count from the cluster, not from the count kept at
  submission;
* ``build_profile`` adds running jobs one ``add_usage`` at a time;
* ``earliest_start``, the head's earliest start and the nodes free at its
  shadow always come from a fresh profile, never from a walk over the
  sorted releases (the production path with no reservation registered);
* the head's profile and earliest start are rebuilt at every use, never
  kept between passes;
* the base ``_ordered_queue`` sorts on ``(-priority, arrival number)``;
* the EASY ``_policy_pass`` asks ``can_start_now`` before the shadow tests
  and walks the whole order;
* ``CapacityProfile.earliest_start`` tries every candidate start with
  ``available_during``.

``submit`` and ``_dequeue`` (bisection on stored keys) and
``pending_node_seconds`` (a sum over a kept list) are not replaced: the
differential tests check the kept lists against the queue directly.

Each policy keeps its own ordering and mechanics (fairshare's usage key,
the drain window's capability order, ``_start``/``cancel``/``withdraw``).
"""

from __future__ import annotations

from typing import Optional

from repro.infra.job import Job
from repro.infra.scheduler import (
    CapacityProfile,
    EasyBackfillScheduler,
    FairshareScheduler,
    FcfsScheduler,
    WeeklyDrainScheduler,
)
from repro.infra.scheduler.base import _HeadMemo

__all__ = [
    "ReferenceCapacityProfile",
    "ReferenceEasy",
    "ReferenceFairshare",
    "ReferenceFcfs",
    "ReferenceWeeklyDrain",
]

_EPSILON = 1e-9


class ReferenceCapacityProfile(CapacityProfile):
    """``earliest_start`` as one ``available_during`` call per candidate."""

    def earliest_start(
        self, nodes: int, duration: float, not_before: float | None = None
    ) -> float:
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        if nodes > self.total_nodes:
            raise ValueError(
                f"request for {nodes} nodes exceeds machine size "
                f"{self.total_nodes}"
            )
        floor = self.now if not_before is None else max(not_before, self.now)
        candidates = [floor] + [t for t in sorted(self._deltas) if t > floor]
        for candidate in candidates:
            if self.available_during(candidate, duration) >= nodes:
                return candidate
        raise AssertionError("no feasible start found")


class _ReferenceCapacity:
    """A profile per ``can_start_now`` call and per use of the head's
    profile; FIFO ties by arrival number."""

    def build_profile(self, for_job: Job) -> CapacityProfile:
        profile = ReferenceCapacityProfile(self.cluster.nodes, self.sim.now)
        for running in self.running.values():
            profile.add_usage(self.sim.now, running.end_estimate, running.nodes)
        for reservation in self.reservations:
            if reservation.admits(for_job):
                continue
            profile.add_usage(reservation.start, reservation.end, reservation.nodes)
        return profile

    def earliest_start(self, job: Job, not_before: Optional[float] = None) -> float:
        floor = not_before
        if job.not_before is not None:
            floor = job.not_before if floor is None else max(floor, job.not_before)
        return self.build_profile(job).earliest_start(
            self.cluster.nodes_for(job.cores), job.walltime, not_before=floor
        )

    def _head_memo(self, head: Job) -> _HeadMemo:
        # Never reused, and built without the production body: a fresh
        # profile and the reference ``earliest_start`` at every use.
        profile = self.build_profile(head)
        start = self.earliest_start(head)
        now = self.sim.now
        return _HeadMemo(head, self._version, now, profile, start)

    def can_start_now(self, job: Job) -> bool:
        if job.not_before is not None and self.sim.now < job.not_before - 1e-9:
            return False
        nodes = self.cluster.nodes_for(job.cores)
        if nodes > self.free_nodes:
            return False
        profile = self.build_profile(job)
        return profile.available_during(self.sim.now, job.walltime) >= nodes

    def _ordered_queue(self) -> list[Job]:
        order = sorted(
            self.queue,
            key=lambda job: (-job.priority, self._arrival_order[job.job_id]),
        )
        return self._apply_user_cap(order)


class ReferenceFcfs(_ReferenceCapacity, FcfsScheduler):
    pass


class ReferenceEasy(_ReferenceCapacity, EasyBackfillScheduler):
    def _policy_pass(self) -> None:
        while True:
            order = self._ordered_queue()
            if not order:
                return
            head = order[0]
            if self.can_start_now(head) and not self._held_by_lock(head):
                self._locked_shadow.pop(head.job_id, None)
                self._start(head)
                continue
            break

        order = self._ordered_queue()
        head = order[0]
        head_nodes = self.cluster.nodes_for(head.cores)
        shadow_start = self._shadow(head)
        profile = self.build_profile(head)
        free_at_shadow = profile.available_during(shadow_start, head.walltime)
        extra_nodes = free_at_shadow - head_nodes

        for job in order[1:]:
            if not self.queue:
                return
            nodes = self.cluster.nodes_for(job.cores)
            if nodes > self.free_nodes:
                continue
            if not self.can_start_now(job):
                continue
            ends_before_shadow = self.sim.now + job.walltime <= shadow_start + _EPSILON
            fits_in_extra = nodes <= extra_nodes
            if ends_before_shadow or fits_in_extra:
                self._start(job)
                if fits_in_extra and not ends_before_shadow:
                    extra_nodes -= nodes


# The policy class comes first so its own ordering and hooks win; the
# reference EASY pass and capacity checks sit below it in the MRO.
class ReferenceFairshare(FairshareScheduler, ReferenceEasy):
    pass


class ReferenceWeeklyDrain(WeeklyDrainScheduler, ReferenceEasy):
    pass

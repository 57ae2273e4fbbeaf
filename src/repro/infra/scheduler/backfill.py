"""EASY backfilling (Lifka 1995), the workhorse policy of TeraGrid systems.

The queue head receives a *shadow reservation* at its earliest feasible start
time.  Any later job may start out of order provided it cannot delay that
reservation: either it finishes before the shadow time, or it fits within the
nodes left over once the head's reservation is laid down ("extra" nodes).

This is the invariant the property tests pin down: **backfilling never moves
the head's reserved start later.**

Two reservation-management styles are supported:

* *reactive* (default) — the shadow is recomputed on every pass, so early
  job completions pull the head's start earlier; the head runs the moment
  the machine is actually free.
* *sticky* (``sticky_shadow=True``) — once computed, the head's reservation
  is locked: the head will not start before it even if the machine drains
  early.  This reproduces the fixed-start advance reservations of
  Moab/Maui-era production schedulers, whose bound-based idle gaps are the
  inefficiency the weekly-drain capability policy (experiment F4) was
  invented to avoid.

The head's earliest start comes from the base class's memo
(``BatchScheduler._head_memo``): found once, then reused until the head
changes, a job starts or finishes, a reservation is added, or time reaches
the head's own start.  Dropping a reservation at its end, a walltime-bound
release or a reservation edge passing does not rebuild it: each changes
only the past, so the memo still answers every query from now on.  While
a reservation is registered the memo keeps the head's capacity profile,
and the nodes left over at the shadow are read from it; otherwise no
profile is built: one prefix walk over the running jobs' sorted
walltime-bound releases (``BatchScheduler._release_walk``) finds the start
and the nodes free there, and the memo keeps both (a sticky shadow at
another time walks again).  Every other queued job is still tested on
every pass; the cheap node and shadow tests stop most of them before
``can_start_now``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.infra.cluster import Cluster
from repro.infra.job import Job
from repro.infra.scheduler.base import BatchScheduler
from repro.sim import Simulator

__all__ = ["EasyBackfillScheduler"]

_EPSILON = 1e-9


class EasyBackfillScheduler(BatchScheduler):
    """EASY backfill over the FIFO arrival order (subclasses may reorder)."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        on_job_end: Optional[Callable[[Job], None]] = None,
        sticky_shadow: bool = False,
        max_eligible_per_user: Optional[int] = None,
    ) -> None:
        super().__init__(
            sim,
            cluster,
            on_job_end=on_job_end,
            max_eligible_per_user=max_eligible_per_user,
        )
        self.sticky_shadow = sticky_shadow
        self._locked_shadow: dict[int, float] = {}

    # -- shadow management --------------------------------------------------
    def _held_by_lock(self, head: Job) -> bool:
        """Whether a sticky reservation forbids starting the head yet."""
        if not self.sticky_shadow:
            return False
        locked = self._locked_shadow.get(head.job_id)
        return locked is not None and self.sim.now < locked - _EPSILON

    def _shadow(self, head: Job) -> float:
        """The head's reserved start time under the configured style."""
        if not self.sticky_shadow:
            return self._head_memo(head).start
        locked = self._locked_shadow.get(head.job_id)
        if locked is None or locked < self.sim.now - _EPSILON:
            # No (valid) reservation yet: lay one down and keep it.
            locked = self._head_memo(head).start
            self._locked_shadow[head.job_id] = locked
        return locked

    def _head_wake_time(self, head: Job) -> float:
        wake = self._head_memo(head).start
        if self.sticky_shadow:
            locked = self._locked_shadow.get(head.job_id)
            if locked is not None:
                wake = max(wake, locked)
        return wake

    # -- policy ----------------------------------------------------------------
    def _policy_pass(self) -> None:
        # Phase 1: start jobs in order while they fit (plain FCFS progress).
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

        # Phase 2: head is blocked. Compute (or recall) its shadow
        # reservation and backfill behind it.
        now = self.sim.now
        memo = self._head_memo(head)
        shadow_start = self._shadow(head)
        # Nodes free during the head's reserved window once it starts (a
        # kept profile begins at its build time: clip as a fresh one would).
        free_at_shadow = self._head_free_during(memo, max(shadow_start, now))
        extra_nodes = free_at_shadow - self._nodes[head.job_id]

        # Cheap tests first: can_start_now is pure, so asking it last (and
        # only for jobs that could not delay the head) changes nothing.  Only
        # _start changes the free nodes, so they are re-read after it.
        free = self.free_nodes
        node_counts = self._nodes
        shadow_end = shadow_start + _EPSILON
        for job in order[1:]:
            if free == 0:
                return
            nodes = node_counts[job.job_id]
            if nodes > free:
                continue
            ends_before_shadow = now + job.walltime <= shadow_end
            fits_in_extra = nodes <= extra_nodes
            if not (ends_before_shadow or fits_in_extra):
                continue
            if not self.can_start_now(job):
                continue
            self._start(job)
            free = self.free_nodes
            if fits_in_extra and not ends_before_shadow:
                extra_nodes -= nodes

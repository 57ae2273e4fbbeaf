"""Common machinery shared by all batch scheduling policies."""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.infra.cluster import Cluster
from repro.infra.job import Job, JobState
from repro.infra.scheduler.profile import CapacityProfile
from repro.sim import Event, Simulator, Timeout

__all__ = ["BatchScheduler", "Reservation", "RunningJob"]


@dataclass(eq=False)
class Reservation:
    """An advance reservation of ``nodes`` over ``[start, end)``.

    ``access`` decides which jobs may start inside the reserved window; jobs
    that do not satisfy it see the reserved nodes as busy.  ``None`` means
    nobody may use them (a pure drain).
    """

    start: float
    end: float
    nodes: int
    access: Optional[Callable[[Job], bool]] = None
    label: str = ""

    def admits(self, job: Job) -> bool:
        return self.access is not None and self.access(job)


@dataclass
class RunningJob:
    """Bookkeeping for a job currently occupying nodes."""

    job: Job
    nodes: int
    end_estimate: float  # start + requested walltime (scheduler's bound)
    end_timer: Timeout  # ends the job at its bounded runtime, unless killed


@dataclass(eq=False)
class _HeadMemo:
    """The queue head's earliest start, built at ``built``, and the capacity
    profile it was read from (``None``: read off the sorted releases, with
    no reservation registered).

    See :meth:`BatchScheduler._head_memo` for when it may be reused.
    """

    head: Job
    version: int
    built: float
    profile: Optional[CapacityProfile]
    start: float


class BatchScheduler:
    """Base class: queue/running-set bookkeeping, start/finish mechanics.

    Subclasses implement :meth:`_schedule_pass`, called whenever the state
    changes (submission, completion, cancellation, reservation edge).

    ``on_job_end`` is invoked with each job reaching a terminal state; the
    owning :class:`~repro.infra.site.ResourceProvider` uses it to charge the
    allocation and emit the usage record.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        on_job_end: Optional[Callable[[Job], None]] = None,
        max_eligible_per_user: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.on_job_end = on_job_end
        if max_eligible_per_user is not None and max_eligible_per_user < 1:
            raise ValueError(
                f"max_eligible_per_user must be >= 1, got {max_eligible_per_user}"
            )
        #: per-user scheduling-eligibility cap (Moab MAXIJOB-style): a user's
        #: queued jobs beyond this limit are held invisible to the policy
        #: until earlier ones start. None = unlimited.
        self.max_eligible_per_user = max_eligible_per_user
        #: pending jobs in arrival order (failover replays it in that order)
        self.queue: list[Job] = []
        #: beside ``queue``: each job's arrival number and node-seconds
        self._queue_arrivals: list[int] = []
        self._queue_work: list[float] = []
        #: the same jobs in service order: higher priority first, then arrival
        self._service: list[Job] = []
        #: beside ``_service``: each job's (-priority, arrival number)
        self._service_keys: list[tuple[float, int]] = []
        self.running: dict[int, RunningJob] = {}
        #: (walltime bound, nodes) of every running job, sorted
        self._releases: list[tuple[float, int]] = []
        self.reservations: list[Reservation] = []
        self.free_nodes = cluster.nodes
        #: while True, policy passes are no-ops (machine down); queued jobs
        #: survive the outage, exactly as a PBS server restart preserves them
        self.suspended = False
        self.completed: list[Job] = []
        self._seq = itertools.count()
        self._arrival_order: dict[int, int] = {}
        #: nodes each queued job occupies, fixed at submission
        self._nodes: dict[int, int] = {}
        self._completions: dict[int, object] = {}
        self._starts: dict[int, object] = {}
        self._next_wake: Optional[float] = None
        self._wake_epoch = 0
        #: bumped on every start, finish and reservation add
        self._version = 0
        self._memo: Optional[_HeadMemo] = None

    # -- public interface ---------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Enqueue ``job`` and immediately attempt a scheduling pass."""
        if job.state is not JobState.CREATED:
            raise ValueError(f"job {job.job_id} was already submitted")
        if job.cores > self.cluster.total_cores:
            raise ValueError(
                f"job {job.job_id} requests {job.cores} cores; "
                f"{self.cluster.name} has {self.cluster.total_cores}"
            )
        job.state = JobState.PENDING
        job.submit_time = self.sim.now
        job.resource = self.cluster.name
        self._completions[job.job_id] = self.sim.event()
        self._starts[job.job_id] = self.sim.event()
        arrival = next(self._seq)
        nodes = self.cluster.nodes_for(job.cores)
        self._arrival_order[job.job_id] = arrival
        self._nodes[job.job_id] = nodes
        self.queue.append(job)
        self._queue_arrivals.append(arrival)
        self._queue_work.append(nodes * job.walltime)
        key = (-job.priority, arrival)
        index = bisect.bisect_right(self._service_keys, key)
        self._service_keys.insert(index, key)
        self._service.insert(index, job)
        self._schedule_pass()
        return job

    def wait_for(self, job: Job):
        """Event that triggers with ``job`` when it reaches a terminal state."""
        try:
            return self._completions[job.job_id]
        except KeyError:
            raise KeyError(
                f"job {job.job_id} was not submitted to this scheduler"
            ) from None

    def wait_for_start(self, job: Job):
        """Event that triggers with ``job`` when it begins running.

        A job cancelled while pending never starts; its start event triggers
        with ``None`` so waiters are always released.
        """
        try:
            return self._starts[job.job_id]
        except KeyError:
            raise KeyError(
                f"job {job.job_id} was not submitted to this scheduler"
            ) from None

    def cancel(self, job: Job) -> None:
        """Remove a pending job, or kill a running one."""
        if job.state is JobState.PENDING:
            self._dequeue(job)
            job.state = JobState.CANCELLED
            job.end_time = self.sim.now
            self._emit_end(job)
            self._schedule_pass()
        elif job.state is JobState.RUNNING:
            self.kill(job, "cancelled")
        elif job.state.is_terminal:
            pass  # cancelling a finished job is a harmless race
        else:
            raise ValueError(f"cannot cancel job in state {job.state}")

    def kill(self, job: Job, cause: str) -> None:
        """End a running job early: ``"node_failure"`` and ``"site_outage"``
        fail it, any other cause (``"cancelled"``) cancels it.

        The kill lands in a deferred call at the current time, ahead of every
        same-time timer (the job's own end included), so a caller may suspend
        the scheduler or pick more victims before any of them ends.  Only the
        first kill of a job ends it; a later one, or a kill of a job that is
        not running, does nothing.
        """
        entry = self.running.get(job.job_id)
        if entry is not None:
            self.sim.defer(self._kill_now, (entry, cause))

    def withdraw(self, job: Job) -> tuple:
        """Silently pull a *pending* job back out (metascheduler failover).

        Unlike :meth:`cancel` this is not a terminal transition: no usage
        record is emitted and the job reverts to ``CREATED`` as if it had
        never been submitted here, ready for resubmission elsewhere.  The
        job's (completion, start) events are returned so the caller can
        bridge existing waiters onto wherever the job lands next.
        """
        if job.state is not JobState.PENDING:
            raise ValueError(
                f"can only withdraw a pending job; {job.job_id} is {job.state}"
            )
        self._dequeue(job)
        completion = self._completions.pop(job.job_id)
        start = self._starts.pop(job.job_id)
        job.state = JobState.CREATED
        job.submit_time = None
        job.resource = None
        self._schedule_pass()
        return completion, start

    def suspend(self) -> None:
        """Freeze scheduling (site outage): nothing starts until resume."""
        self.suspended = True

    def resume(self) -> None:
        """Lift a suspension and immediately re-run the policy."""
        self.suspended = False
        self._schedule_pass()

    def add_reservation(self, reservation: Reservation) -> Reservation:
        """Register an advance reservation and re-run scheduling at its edges."""
        if not (math.isfinite(reservation.start) and math.isfinite(reservation.end)):
            raise ValueError(
                f"reservation window [{reservation.start}, {reservation.end}) "
                "must be finite"
            )
        if reservation.end <= reservation.start:
            raise ValueError("reservation end must be after start")
        if reservation.nodes < 1:
            raise ValueError(
                f"reservation needs >= 1 node, got {reservation.nodes}"
            )
        if reservation.nodes > self.cluster.nodes:
            raise ValueError("reservation exceeds machine size")
        self.reservations.append(reservation)
        self._version += 1
        # Re-run the policy when the window opens and when it closes.  Timers
        # due at one instant fire in the order they were armed, so the closing
        # timer is armed when the window opens: it fires after a same-instant
        # timer armed before then (a drain cycle laying its next window).
        now = self.sim.now
        if reservation.start > now:
            opens = self.sim.timeout(reservation.start - now, reservation)
            opens.callbacks.append(self._reservation_opens)
        elif reservation.end > now:
            self._arm_reservation_close(reservation)
        self._schedule_pass()
        return reservation

    def _reservation_opens(self, timer: Timeout) -> None:
        self._schedule_pass()
        self._arm_reservation_close(timer.value)

    def _arm_reservation_close(self, reservation: Reservation) -> None:
        closes = self.sim.timeout(reservation.end - self.sim.now, reservation)
        closes.callbacks.append(self._reservation_closes)

    def _reservation_closes(self, timer: Timeout) -> None:
        self._drop_reservation(timer.value)
        self._schedule_pass()

    # -- introspection --------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self.queue)

    def pending_node_seconds(self) -> float:
        """Total outstanding work in the queue (nodes x requested walltime),
        summed in arrival order."""
        return sum(self._queue_work)

    # -- policy hook ------------------------------------------------------------
    def _schedule_pass(self) -> None:
        """Run the policy, then arm a timer for time-blocked heads.

        Completions and submissions trigger passes naturally; a head blocked
        purely by *time* (a ``not_before`` constraint, or waiting out a
        reservation on an otherwise idle machine) needs an explicit wake-up.
        """
        if self.suspended:
            return
        self._policy_pass()
        self._arm_head_wakeup()

    def _policy_pass(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _head_wake_time(self, head: Job) -> float:
        """When a time-blocked head should next be reconsidered."""
        return self._head_memo(head).start

    def _arm_head_wakeup(self) -> None:
        order = self._ordered_queue()
        if not order:
            return
        head = order[0]
        wake_at = self._head_wake_time(head)
        if wake_at <= self.sim.now + 1e-9:
            return
        if self._next_wake is not None and wake_at >= self._next_wake - 1e-9:
            return  # an equal-or-earlier wake-up is already armed
        self._next_wake = wake_at
        self._wake_epoch += 1
        wake = self.sim.timeout(wake_at - self.sim.now, self._wake_epoch)
        wake.callbacks.append(self._wake)

    def _wake(self, timer: Timeout) -> None:
        if timer.value == self._wake_epoch:  # not superseded by a later arm
            self._next_wake = None
            self._schedule_pass()

    def _ordered_queue(self) -> list[Job]:
        """Queue in service order: higher ``job.priority`` first, then FIFO.

        All jobs default to priority 0, so the default order is pure FIFO;
        interactive/urgent queues get a boost by setting a higher priority.
        Policies override for richer orders (e.g. fairshare).  With
        ``max_eligible_per_user`` set, each user's jobs beyond the cap are
        dropped from the eligible order (they remain queued).

        The order is kept as jobs arrive and leave (``submit`` and
        ``_dequeue`` insert and delete by bisection on the stored
        ``(-priority, arrival number)`` keys; a job's priority must not
        change while it is queued), so no pass sorts the queue.  Without a
        cap the live list comes back: callers read it and must not change
        it, and it changes as jobs start.
        """
        return self._apply_user_cap(self._service)

    def _apply_user_cap(self, order: list[Job]) -> list[Job]:
        if self.max_eligible_per_user is None:
            return order
        seen: dict[str, int] = {}
        eligible = []
        for job in order:
            count = seen.get(job.user, 0)
            if count < self.max_eligible_per_user:
                eligible.append(job)
                seen[job.user] = count + 1
        return eligible

    # -- capacity reasoning -------------------------------------------------------
    def build_profile(self, for_job: Job) -> CapacityProfile:
        """Availability profile as seen by ``for_job``.

        Reservations admitting the job do not count as busy for it; all other
        reservations and the running jobs do.  A running job holds its nodes
        until its walltime bound at the latest, and the scheduler plans with
        that bound: the profile is seeded from the sorted (bound, nodes)
        releases kept on start and finish, not job by job.

        Only a registered reservation makes a profile necessary; without one
        the sorted releases answer every question (:meth:`_release_walk`).
        Building one is the costly step of a pass, so the head's profile is
        kept between passes (:meth:`_head_memo`); other jobs get a fresh one.
        """
        profile = CapacityProfile(self.cluster.nodes, self.sim.now)
        profile.add_releases(self._releases)
        for reservation in self.reservations:
            if reservation.admits(for_job):
                continue
            profile.add_usage(reservation.start, reservation.end, reservation.nodes)
        return profile

    def _release_walk(self, nodes: int, floor: Optional[float]) -> tuple[float, int]:
        """The earliest time ``t`` from ``floor`` (clipped to now) on with
        ``nodes`` free, and the nodes free at ``t``; ``nodes`` 0 gives the
        nodes free at ``floor``.

        Valid only while no reservation is registered.  Then free nodes only
        grow from now on: the releases hold ``cluster.nodes - free_nodes``
        nodes between them, so for every ``t >= now`` the nodes free at
        ``t`` are ``free_nodes`` plus those released by ``t``, and that is
        also the fewest free over any window starting at ``t``.  One prefix
        walk over the sorted releases answers both questions, as a fresh
        :class:`CapacityProfile` would.
        """
        if nodes > self.cluster.nodes:
            raise ValueError(
                f"request for {nodes} nodes exceeds machine size "
                f"{self.cluster.nodes}"
            )
        now = self.sim.now
        start = now if floor is None else max(floor, now)
        free = self.free_nodes
        for release, released in self._releases:
            if release > start:
                if free >= nodes:
                    break
                start = release
            free += released
        return start, free

    def can_start_now(self, job: Job) -> bool:
        """Whether the queued ``job`` can start immediately without
        violating anything.

        Running jobs only ever release nodes from now on, so ``free_nodes``
        is the fewest free nodes anywhere in the job's window unless a
        reservation the job may not use reaches into it.  With no
        reservation registered the answer is the free-node test; only such
        a reservation makes it need a profile.
        """
        now = self.sim.now
        if job.not_before is not None and now < job.not_before - 1e-9:
            return False
        nodes = self._nodes[job.job_id]
        if nodes > self.free_nodes:
            return False
        if not self.reservations:
            return True
        window_end = now + job.walltime
        if not any(
            reservation.end > now
            and reservation.start <= window_end
            and not reservation.admits(job)
            for reservation in self.reservations
        ):
            return True
        profile = self.build_profile(job)
        return profile.available_during(now, job.walltime) >= nodes

    def earliest_start(self, job: Job, not_before: Optional[float] = None) -> float:
        """Earliest feasible start time for ``job`` under current knowledge."""
        nodes = self.cluster.nodes_for(job.cores)
        floor = not_before
        if job.not_before is not None:
            floor = job.not_before if floor is None else max(floor, job.not_before)
        if not self.reservations:
            return self._release_walk(nodes, floor)[0]
        profile = self.build_profile(job)
        return profile.earliest_start(nodes, job.walltime, not_before=floor)

    def _head_memo(self, head: Job) -> _HeadMemo:
        """The head's earliest start, found once per state.

        With a reservation registered it is read from the head's profile,
        kept in the memo; without one, off the sorted releases
        (:meth:`_release_walk`), with no profile.  A memo is rebuilt when the
        head changes, when ``_version`` moves (a job starts or finishes, or a
        reservation is added), and once time reaches the head's earliest
        start (a memo built at this instant stays current).  Until then a
        kept profile and a fresh one agree at every time from ``now`` on: a
        walltime-bound release or reservation edge passed since the build
        changed only the past (a reservation is dropped at its end).  So the
        kept start is still the earliest, and every query from ``now`` on
        gets a fresh profile's answer.
        """
        now = self.sim.now
        memo = self._memo
        if (
            memo is not None
            and memo.head is head
            and memo.version == self._version
            and (now < memo.start or now == memo.built)
        ):
            return memo
        nodes = self._nodes[head.job_id]
        if self.reservations:
            profile = self.build_profile(head)
            start = profile.earliest_start(
                nodes, head.walltime, not_before=head.not_before
            )
        else:
            profile = None
            start = self._release_walk(nodes, head.not_before)[0]
        self._memo = memo = _HeadMemo(head, self._version, now, profile, start)
        return memo

    def _head_free_during(self, memo: _HeadMemo, start: float) -> int:
        """Fewest nodes free over the head's window from ``start`` (at or
        after now), as the head sees them: from the memo's profile, or off
        the releases when the memo has none (no reservation was added since
        it was built, so none is registered)."""
        if memo.profile is None:
            return self._release_walk(0, start)[1]
        return memo.profile.available_during(start, memo.head.walltime)

    # -- mechanics ----------------------------------------------------------------
    def _dequeue(self, job: Job) -> None:
        """Take a pending job out of the queue and drop its bookkeeping.

        The queue is in arrival order and ``_service`` in service order, so
        the job is found in each by bisecting the keys stored beside it;
        ``queue.remove`` would run the dataclass ``Job.__eq__`` against every
        job ahead of it.
        """
        arrival = self._arrival_order.pop(job.job_id)
        index = bisect.bisect_left(self._queue_arrivals, arrival)
        assert self.queue[index] is job, "queue left arrival order"
        del self.queue[index], self._queue_arrivals[index], self._queue_work[index]
        index = bisect.bisect_left(self._service_keys, (-job.priority, arrival))
        assert self._service[index] is job, "queue left service order"
        del self._service[index], self._service_keys[index]
        del self._nodes[job.job_id]

    def _start(self, job: Job) -> None:
        nodes = self._nodes[job.job_id]
        assert nodes <= self.free_nodes, "policy started a job without room"
        self._dequeue(job)
        self.free_nodes -= nodes
        job.state = JobState.RUNNING
        job.start_time = self.sim.now
        # Events stay registered after triggering so that wait_for_start /
        # wait_for work regardless of when the caller asks (a job may start
        # synchronously inside submit()).
        start_event = self._starts.get(job.job_id)
        if start_event is not None:
            start_event.succeed(job)
        end_timer = self.sim.timeout(job.bounded_runtime, job)
        end_timer.callbacks.append(self._run_out)
        end_estimate = self.sim.now + job.walltime
        self.running[job.job_id] = RunningJob(
            job=job, nodes=nodes, end_estimate=end_estimate, end_timer=end_timer
        )
        bisect.insort(self._releases, (end_estimate, nodes))
        self._version += 1

    def _run_out(self, end_timer: Timeout) -> None:
        job = end_timer.value
        entry = self.running[job.job_id]
        self._finish(entry, job.final_state_when_run_to_completion())

    def _kill_now(self, event: Event) -> None:
        entry, cause = event.value
        if self.running.get(entry.job.job_id) is not entry:
            return  # an earlier kill ended the job
        entry.end_timer.callbacks.clear()
        # A user cancellation and a hardware fault end the job the same way
        # mechanically, but accounting distinguishes them.
        if cause in ("node_failure", "site_outage"):
            self._finish(entry, JobState.FAILED)
        else:
            self._finish(entry, JobState.CANCELLED)

    def _finish(self, entry: RunningJob, final_state: JobState) -> None:
        job, nodes = entry.job, entry.nodes
        del self.running[job.job_id]
        release = (entry.end_estimate, nodes)
        del self._releases[bisect.bisect_left(self._releases, release)]
        self._version += 1
        self.free_nodes += nodes
        job.state = final_state
        job.end_time = self.sim.now
        self._emit_end(job)
        self._schedule_pass()

    def _emit_end(self, job: Job) -> None:
        self.completed.append(job)
        if self.on_job_end is not None:
            self.on_job_end(job)
        start_event = self._starts.get(job.job_id)
        if start_event is not None and not start_event.triggered:
            start_event.succeed(None)  # terminal without ever starting
        completion = self._completions.get(job.job_id)
        if completion is not None:
            completion.succeed(job)

    def _drop_reservation(self, reservation: Reservation) -> None:
        try:
            self.reservations.remove(reservation)
        except ValueError:  # pragma: no cover - already expired
            pass

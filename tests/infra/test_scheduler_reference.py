"""Differential tests: the scheduler against its plain reference.

The production EASY pass skips profiles, candidates and sort keys that
cannot change a decision, keeps the head's profile between passes, and
with no reservation registered reads the head's start and free nodes off
the sorted releases instead of a profile.  ``reference_scheduler`` keeps
the direct code.  Both are fed the same random workload (reservations,
priorities, ``not_before`` holds, cancels, sticky shadows, per-user caps,
fairshare and the weekly drain) and stepped in lockstep, checking after
every event that each job has the same state and start time (the
check-after-every-tick idiom).  Random workloads rarely hit the instants
the head memo must notice, so each of its guards also gets a hand-built
scenario stepped the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.infra.cluster import Cluster
from repro.infra.job import Job, JobState
from repro.infra.scheduler import (
    CapacityProfile,
    EasyBackfillScheduler,
    FairshareScheduler,
    FcfsScheduler,
    Reservation,
    WeeklyDrainScheduler,
)
from repro.sim import Simulator
from tests.infra.reference_scheduler import (
    ReferenceCapacityProfile,
    ReferenceEasy,
    ReferenceFairshare,
    ReferenceFcfs,
    ReferenceWeeklyDrain,
)
from tests.strategies import job_specs

USERS = ("a", "b", "c")
HORIZON = 3000.0

#: policy name -> (production class, reference class, extra constructor args)
POLICIES = {
    "fcfs": (FcfsScheduler, ReferenceFcfs, {}),
    "easy": (EasyBackfillScheduler, ReferenceEasy, {}),
    "fairshare": (FairshareScheduler, ReferenceFairshare, {"half_life": 300.0}),
    "weekly-drain": (
        WeeklyDrainScheduler,
        ReferenceWeeklyDrain,
        {"capability_fraction": 0.75, "window": 150.0, "period": 500.0,
         "first_window": 120.0},
    ),
}


@dataclass(frozen=True)
class Workload:
    policy: str
    options: dict
    jobs: list  # (cores, walltime, fraction, offset, user, priority, hold)
    cancels: list  # (job index, delay after its submission)
    reservations: list  # (added at, start, length, nodes, admitted users)


@st.composite
def workloads(draw, policies=tuple(sorted(POLICIES)), plain=False) -> Workload:
    """A random workload for one of ``policies``; ``plain`` keeps each
    policy's default options and draws holds in only some workloads."""
    policy = draw(st.sampled_from(policies))
    options = {}
    if policy in ("fcfs", "easy") and not plain:
        options["max_eligible_per_user"] = draw(st.sampled_from([None, 1, 2]))
    if policy == "easy" and not plain:
        options["sticky_shadow"] = draw(st.booleans())
    specs = draw(job_specs(min_size=1, max_size=30, max_cores=16, max_offset=400))
    holds = st.none() | st.integers(min_value=0, max_value=150)
    if plain and not draw(st.booleans()):
        holds = st.none()
    jobs = [
        (
            cores, walltime, fraction, offset,
            draw(st.sampled_from(USERS)),
            draw(st.sampled_from([0.0, 5.0, 100.0])),
            draw(holds),
        )
        for cores, walltime, fraction, offset in specs
    ]
    cancels = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(jobs) - 1),
                st.integers(min_value=0, max_value=150),
            ),
            max_size=5,
        )
    )
    reservations = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),  # added at
                st.integers(min_value=0, max_value=400),  # start
                st.integers(min_value=1, max_value=150),  # length
                st.integers(min_value=1, max_value=8),  # nodes
                # None: nobody may use it; otherwise the users it admits
                st.none() | st.frozensets(st.sampled_from(USERS), max_size=2),
            ),
            max_size=4,
        )
    )
    return Workload(policy, options, jobs, cancels, reservations)


def _rig(scheduler_class, workload: Workload):
    """A simulator, its scheduler and the jobs of ``workload``, scheduled
    on a fresh 8-node machine."""
    sim = Simulator()
    cluster = Cluster("mach", nodes=8, cores_per_node=2)
    scheduler = scheduler_class(
        sim, cluster, **POLICIES[workload.policy][2], **workload.options
    )
    jobs = [
        Job(
            user=user,
            account="acct",
            cores=cores,
            walltime=float(walltime),
            true_runtime=float(walltime) * fraction,
            job_id=sim.next_id("job"),
            priority=priority,
            not_before=None if hold is None else float(offset + hold),
        )
        for cores, walltime, fraction, offset, user, priority, hold in workload.jobs
    ]

    def submit_later(delay, job):
        yield sim.timeout(delay)
        scheduler.submit(job)

    def cancel_later(delay, job):
        yield sim.timeout(delay)
        if job.state is not JobState.CREATED:
            scheduler.cancel(job)

    def reserve_later(delay, reservation):
        yield sim.timeout(delay)
        scheduler.add_reservation(reservation)

    for job, spec in zip(jobs, workload.jobs):
        sim.process(submit_later(float(spec[3]), job))
    for index, delay in workload.cancels:
        sim.process(cancel_later(float(workload.jobs[index][3] + delay), jobs[index]))
    for added, start, length, nodes, users in workload.reservations:
        access = None if users is None else (lambda job, users=users: job.user in users)
        reservation = Reservation(
            start=float(max(added, start)),
            end=float(max(added, start) + length),
            nodes=nodes,
            access=access,
        )
        sim.process(reserve_later(float(added), reservation))
    return sim, scheduler, jobs


def _observed(sim, scheduler, jobs):
    """What both schedulers must agree on, after checking the bookkeeping
    the release walk and the info service read.

    The releases hold every busy node, so ``free_nodes`` plus the nodes
    released by any ``t >= now`` is the free count at ``t``; and the kept
    node-seconds list sums, bit for bit, to the plain sum over the queue.
    """
    busy = sum(nodes for _, nodes in scheduler._releases)
    assert busy == scheduler.cluster.nodes - scheduler.free_nodes
    plain = sum(
        scheduler.cluster.nodes_for(job.cores) * job.walltime
        for job in scheduler.queue
    )
    assert repr(scheduler.pending_node_seconds()) == repr(plain)
    return sim.now, [(job.state, job.start_time) for job in jobs]


def _assert_lockstep(workload: Workload) -> None:
    production_class, reference_class, _ = POLICIES[workload.policy]
    sim, scheduler, jobs = _rig(production_class, workload)
    reference = _rig(reference_class, workload)
    while len(sim) and sim.peek() <= HORIZON:
        sim.step()
        reference[0].step()
        assert _observed(sim, scheduler, jobs) == _observed(*reference)
    assert len(sim) == len(reference[0])


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_scheduler_matches_reference_after_every_step(workload):
    _assert_lockstep(workload)


@settings(max_examples=400, deadline=None)
@given(workloads(policies=("easy",), plain=True))
def test_plain_easy_matches_reference_after_every_step(workload):
    """Default EASY (no per-user cap, reactive shadows), the campaigns'
    default scheduler; holds come in only some workloads, so hold-free
    queues get half the examples."""
    _assert_lockstep(workload)


# -- capacity profile: one sweep equals the candidate loop ---------------------

_jitter = st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, -5e-10])


# A small integer grid makes edges land on each other and on window ends.
@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),  # start
            st.integers(min_value=1, max_value=12),  # length
            st.integers(min_value=1, max_value=8),  # nodes
            _jitter,
            _jitter,
        ),
        max_size=12,
    ),
    st.integers(min_value=0, max_value=10),  # now
    st.integers(min_value=1, max_value=8),  # nodes wanted
    st.integers(min_value=1, max_value=12),  # duration
    _jitter,
    st.none() | st.integers(min_value=0, max_value=40),  # not_before
)
def test_earliest_start_sweep_matches_candidate_loop(
    usages, now, nodes, duration, duration_jitter, not_before
):
    """Edges a few epsilons either side of a window's end must be judged
    exactly as the per-candidate ``available_during`` loop judges them."""
    profiles = [
        CapacityProfile(8, now=float(now)),
        ReferenceCapacityProfile(8, now=float(now)),
    ]
    for start, length, used, start_jitter, end_jitter in usages:
        for profile in profiles:
            profile.add_usage(
                start + start_jitter, start + length + end_jitter, used
            )
    window = duration + duration_jitter
    floor = None if not_before is None else float(not_before)
    sweep, loop = (
        profile.earliest_start(nodes, window, not_before=floor)
        for profile in profiles
    )
    assert sweep == loop


# -- the release walk: one prefix walk equals a fresh profile ------------------


@st.composite
def release_states(draw):
    """A machine's sorted (walltime bound, nodes) releases, some of them at
    or before ``now``, with ties, and some nodes idle."""
    releases = sorted(
        draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=30).map(float),
                    st.integers(min_value=1, max_value=4),
                ),
                max_size=8,
            )
        )
    )
    busy = sum(nodes for _, nodes in releases)
    total = busy + draw(st.integers(min_value=0 if busy else 1, max_value=3))
    now = float(draw(st.integers(min_value=0, max_value=20)))
    return releases, total, now


@settings(max_examples=500, deadline=None)
@given(release_states(), st.data())
def test_release_walk_matches_a_fresh_profile(state, data):
    """With no reservation registered, the walk's earliest start and its
    free nodes over a window equal a fresh profile's answers, floors before,
    on and after a release included; a request wider than the machine
    raises the profile's ``ValueError``."""
    releases, total, now = state
    edges = sorted({now, *(release for release, _ in releases)})
    around_edge = st.sampled_from(edges).flatmap(
        lambda edge: st.sampled_from([edge - 0.5, edge, edge + 0.5])
    )
    not_before = data.draw(st.none() | around_edge, label="not_before")
    window_start = data.draw(around_edge, label="window_start")
    nodes = data.draw(st.integers(min_value=1, max_value=total + 1), label="nodes")
    duration = float(data.draw(st.integers(min_value=1, max_value=12)))

    sim = Simulator()
    sim.run(until=now)
    scheduler = EasyBackfillScheduler(sim, Cluster("mach", nodes=total, cores_per_node=1))
    scheduler._releases = releases
    scheduler.free_nodes = total - sum(released for _, released in releases)
    profile = CapacityProfile(total, now)
    profile.add_releases(releases)

    at, free = scheduler._release_walk(0, window_start)
    assert at == max(window_start, now)
    assert free == profile.available_during(window_start, duration)
    if nodes > total:
        with pytest.raises(ValueError) as walked:
            scheduler._release_walk(nodes, not_before)
        with pytest.raises(ValueError) as profiled:
            profile.earliest_start(nodes, duration, not_before=not_before)
        assert str(walked.value) == str(profiled.value)
        return
    start, free = scheduler._release_walk(nodes, not_before)
    assert start == profile.earliest_start(nodes, duration, not_before=not_before)
    assert free == profile.available_during(start, duration) >= nodes
    job = Job(
        user="u", account="acct", cores=nodes, walltime=duration,
        true_runtime=duration, job_id=sim.next_id("job"), not_before=not_before,
    )
    assert scheduler.earliest_start(job) == start


# -- the head memo: hand-built lockstep scenarios -------------------------------
#
# Each scenario sets up a blocked head whose memo (profile and earliest start)
# a later pass may reuse, then changes one thing.  The ``test_guard_*`` ones
# change something the memo must notice (its head, its version or the time
# passing its start) and fail without that check; the rest pin decisions at
# instants the memo deliberately ignores.  Both schedulers run on an 8-node
# machine with one core per node, so a job's cores are its nodes.


def _job(sim, nodes, walltime, user="u", runtime=None, **kwargs):
    """A job that runs to its walltime bound unless ``runtime`` is given."""
    return Job(
        user=user,
        account="acct",
        cores=nodes,
        walltime=float(walltime),
        true_runtime=float(walltime if runtime is None else runtime),
        job_id=sim.next_id("job"),
        **kwargs,
    )


def _at(sim, time, action, *args):
    """Call ``action(*args)`` at ``time``.

    Calls set up first run first at equal times, and all of them run ahead
    of scheduler events (releases, reservation edges) due at the same time.
    """

    def later():
        yield sim.timeout(time)
        action(*args)

    sim.process(later())


def _lockstep(script):
    """Run ``script(sim, scheduler)`` on production and reference EASY.

    The script sets up jobs and actions and returns the jobs; the two runs
    must agree after every step.  Returns the production run's jobs.
    """
    runs = []
    for scheduler_class in (EasyBackfillScheduler, ReferenceEasy):
        sim = Simulator()
        scheduler = scheduler_class(sim, Cluster("mach", nodes=8, cores_per_node=1))
        runs.append((sim, scheduler, script(sim, scheduler)))
    production, reference = runs
    sim, jobs = production[0], production[2]
    while len(sim):
        sim.step()
        reference[0].step()
        assert _observed(*production) == _observed(*reference)
    assert not len(reference[0])
    return jobs


def _submit_at(sim, scheduler, time, *jobs):
    for job in jobs:
        _at(sim, time, scheduler.submit, job)


def test_guard_head_identity_newcomer_becomes_head():
    """A higher-priority newcomer heads the queue with an earlier shadow
    than the old head's: the short job behind it must not backfill into
    the old head's longer shadow."""

    def script(sim, scheduler):
        wide, narrow = _job(sim, 4, 50), _job(sim, 2, 20)
        old_head = _job(sim, 8, 100)
        urgent, candidate = _job(sim, 4, 10, priority=10.0), _job(sim, 2, 25)
        _submit_at(sim, scheduler, 0.0, wide, narrow, old_head)
        _submit_at(sim, scheduler, 10.0, urgent, candidate)
        return [wide, narrow, old_head, urgent, candidate]

    jobs = _lockstep(script)
    assert [job.start_time for job in jobs[2:]] == [50.0, 20.0, 150.0]


def test_guard_head_identity_head_cancelled():
    """Cancelling the head hands the shadow to a smaller job with an earlier
    one: a job submitted next must be held to that shadow."""

    def script(sim, scheduler):
        wide, narrow = _job(sim, 4, 50), _job(sim, 2, 20)
        head, second, candidate = _job(sim, 8, 100), _job(sim, 4, 10), _job(sim, 2, 25)
        _submit_at(sim, scheduler, 0.0, wide, narrow, head, second)
        _at(sim, 10.0, scheduler.cancel, head)
        _submit_at(sim, scheduler, 10.0, candidate)
        return [wide, narrow, head, second, candidate]

    jobs = _lockstep(script)
    assert jobs[2].state is JobState.CANCELLED
    assert [job.start_time for job in jobs[3:]] == [20.0, 30.0]


def test_guard_version_on_backfill_start():
    """A job backfilled into the nodes left over at the shadow uses them
    up: the next job may not take them again and delay the head."""

    def script(sim, scheduler):
        running, head = _job(sim, 4, 20), _job(sim, 6, 10)
        first, second = _job(sim, 2, 100), _job(sim, 2, 100)
        _submit_at(sim, scheduler, 0.0, running, head)
        _submit_at(sim, scheduler, 1.0, first)
        _submit_at(sim, scheduler, 2.0, second)
        return [running, head, first, second]

    jobs = _lockstep(script)
    assert [job.start_time for job in jobs[1:]] == [20.0, 1.0, 30.0]


def test_guard_version_on_early_finish():
    """A job finishing before its walltime bound brings the head's shadow
    forward: a later job must be held to the new, earlier shadow."""

    def script(sim, scheduler):
        early, steady = _job(sim, 4, 100, runtime=10), _job(sim, 2, 50)
        head, candidate = _job(sim, 8, 10), _job(sim, 2, 60)
        _submit_at(sim, scheduler, 0.0, early, steady, head)
        _submit_at(sim, scheduler, 11.0, candidate)
        return [early, steady, head, candidate]

    jobs = _lockstep(script)
    assert [job.start_time for job in jobs[2:]] == [50.0, 60.0]


def test_guard_version_on_added_reservation():
    """A reservation added across the head's shadow pushes it later: a job
    that ends before the new shadow may backfill."""

    def script(sim, scheduler):
        running, head, candidate = _job(sim, 4, 20), _job(sim, 8, 10), _job(sim, 4, 15)
        _submit_at(sim, scheduler, 0.0, running, head)
        _at(sim, 5.0, scheduler.add_reservation,
            Reservation(start=25.0, end=30.0, nodes=8))
        _submit_at(sim, scheduler, 6.0, candidate)
        return [running, head, candidate]

    jobs = _lockstep(script)
    assert [job.start_time for job in jobs[1:]] == [30.0, 6.0]


def test_guard_head_start_passed_while_suspended():
    """The head's earliest start (its hold expiring at t=10) passes while
    scheduling is suspended, and by the resume at t=28 a drain at t=30 no
    longer leaves it room: its shadow moves to the drain's end, and a short
    job may backfill ahead of the drain."""

    def script(sim, scheduler):
        head, candidate = _job(sim, 8, 5, not_before=10.0), _job(sim, 2, 1)
        _at(sim, 0.0, scheduler.add_reservation,
            Reservation(start=30.0, end=40.0, nodes=8))
        _submit_at(sim, scheduler, 0.0, head)
        _at(sim, 5.0, scheduler.suspend)
        _submit_at(sim, scheduler, 27.0, candidate)
        _at(sim, 28.0, scheduler.resume)
        return [head, candidate]

    jobs = _lockstep(script)
    assert [job.start_time for job in jobs] == [40.0, 28.0]


def test_memo_across_reservation_start_edges():
    """Two whole-machine drains open at t=1 and t=3, exactly when jobs that
    run to their walltime bound release the machine, and a job arrives as
    the second opens.  The memo is not rebuilt at a reservation edge: a
    kept profile and a fresh one agree from ``now`` on."""

    def script(sim, scheduler):
        first, second, small = (_job(sim, 8, 1), _job(sim, 8, 1), _job(sim, 4, 1))
        late = _job(sim, 2, 1)
        for start in (1.0, 3.0):
            _at(sim, 0.0, scheduler.add_reservation,
                Reservation(start=start, end=start + 1.0, nodes=8))
        _submit_at(sim, scheduler, 0.0, first, second, small)
        _submit_at(sim, scheduler, 3.0, late)
        return [first, second, small, late]

    jobs = _lockstep(script)
    assert [job.start_time for job in jobs] == [0.0, 2.0, 4.0, 4.0]


def test_memo_across_reservation_end_edge():
    """A drain that blocks a backfill candidate ends at t=20; a submit at
    that instant runs before the drain's own edge pass and must already see
    the candidate fit."""

    def script(sim, scheduler):
        running = _job(sim, 4, 100, user="r")
        head, candidate, newcomer = _job(sim, 8, 10), _job(sim, 2, 10), _job(sim, 6, 5)
        _at(sim, 0.0, scheduler.add_reservation,
            Reservation(start=0.0, end=20.0, nodes=8,
                        access=lambda job: job.user == "r"))
        _submit_at(sim, scheduler, 0.0, running, head, candidate)
        _submit_at(sim, scheduler, 20.0, newcomer)
        return [running, head, candidate, newcomer]

    jobs = _lockstep(script)
    assert jobs[2].start_time == 20.0


def test_memo_across_walltime_bound_release():
    """A running job reaches its walltime bound at t=10 while a reservation
    that admits it (but not the queued candidate) still counts against the
    candidate; a submit at that instant, before the job's finish, must
    already see the candidate fit."""

    def script(sim, scheduler):
        running = _job(sim, 4, 10, user="r")
        head, candidate, newcomer = _job(sim, 8, 50), _job(sim, 4, 5), _job(sim, 5, 5)
        _at(sim, 0.0, scheduler.add_reservation,
            Reservation(start=0.0, end=100.0, nodes=4,
                        access=lambda job: job.user == "r"))
        _submit_at(sim, scheduler, 0.0, running, head, candidate)
        _submit_at(sim, scheduler, 10.0, newcomer)
        return [running, head, candidate, newcomer]

    jobs = _lockstep(script)
    assert jobs[2].start_time == 10.0


def test_memo_across_hold_expiry():
    """A candidate held until t=20 may start at the next pass after that,
    here a submit at t=30, though nothing else changed."""

    def script(sim, scheduler):
        running, head = _job(sim, 4, 100), _job(sim, 8, 10)
        held, newcomer = _job(sim, 2, 10, not_before=20.0), _job(sim, 6, 5)
        _submit_at(sim, scheduler, 0.0, running, head, held)
        _submit_at(sim, scheduler, 30.0, newcomer)
        return [running, head, held, newcomer]

    jobs = _lockstep(script)
    assert jobs[2].start_time == 30.0


def test_withdrawn_job_resubmitted_starts_once():
    """A job submitted, withdrawn and resubmitted while scheduling is
    suspended is queued once when scheduling resumes: it starts once, and
    nothing of its first submission is left in the service order."""

    def script(sim, scheduler):
        running, head, mover = _job(sim, 4, 100), _job(sim, 8, 10), _job(sim, 2, 10)
        _submit_at(sim, scheduler, 0.0, running, head)
        _at(sim, 5.0, scheduler.suspend)
        _submit_at(sim, scheduler, 5.0, mover)
        _at(sim, 5.0, scheduler.withdraw, mover)
        _submit_at(sim, scheduler, 5.0, mover)
        _at(sim, 6.0, scheduler.resume)
        return [running, head, mover]

    jobs = _lockstep(script)
    assert jobs[2].start_time == 6.0


def test_submit_into_blocked_queue_reuses_the_head_profile():
    """With no reservation registered no pass builds a profile: the sorted
    releases answer the head's shadow, leftover nodes and wake-up, and the
    queued jobs are too wide to need one.  Adding a reservation changes the
    memo: the next pass builds the head's profile once, and a submit that
    starts nothing reuses it."""
    sim = Simulator()
    built = []

    class Counting(EasyBackfillScheduler):
        def build_profile(self, for_job):
            built.append(for_job)
            return super().build_profile(for_job)

    scheduler = Counting(sim, Cluster("mach", nodes=8, cores_per_node=1))
    running, head = _job(sim, 4, 100), _job(sim, 8, 10)
    queued = [_job(sim, 6, 10) for _ in range(10)]
    for job in (running, head, *queued):
        scheduler.submit(job)
    scheduler.submit(_job(sim, 6, 10))
    assert built == []
    scheduler.add_reservation(Reservation(start=500.0, end=600.0, nodes=1))
    assert built == [head]
    scheduler.submit(_job(sim, 6, 10))
    assert built == [head]
    assert running.state is JobState.RUNNING
    assert all(job.state is JobState.PENDING for job in (head, *queued))

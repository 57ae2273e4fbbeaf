"""Differential tests: the scheduler against its plain reference.

The production EASY pass skips profiles, candidates and sort keys that
cannot change a decision.  ``reference_scheduler`` keeps the direct code.
Both are fed the same random workload (reservations, priorities,
``not_before`` holds, cancels, sticky shadows, per-user caps, fairshare and
the weekly drain) and stepped in lockstep, checking after every event that
each job has the same state and start time (the check-after-every-tick
idiom).
"""

from __future__ import annotations

from dataclasses import dataclass

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
def workloads(draw) -> Workload:
    policy = draw(st.sampled_from(sorted(POLICIES)))
    options = {}
    if policy in ("fcfs", "easy"):
        options["max_eligible_per_user"] = draw(st.sampled_from([None, 1, 2]))
    if policy == "easy":
        options["sticky_shadow"] = draw(st.booleans())
    specs = draw(job_specs(min_size=1, max_size=30, max_cores=16, max_offset=400))
    jobs = [
        (
            cores, walltime, fraction, offset,
            draw(st.sampled_from(USERS)),
            draw(st.sampled_from([0.0, 5.0, 100.0])),
            draw(st.none() | st.integers(min_value=0, max_value=150)),
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
    """A simulator with ``workload`` scheduled on a fresh 8-node machine."""
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
    return sim, jobs


def _observed(sim, jobs):
    return sim.now, [(job.state, job.start_time) for job in jobs]


@settings(max_examples=150, deadline=None)
@given(workloads())
def test_scheduler_matches_reference_after_every_step(workload):
    production_class, reference_class, _ = POLICIES[workload.policy]
    sim, jobs = _rig(production_class, workload)
    reference_sim, reference_jobs = _rig(reference_class, workload)
    while len(sim) and sim.peek() <= HORIZON:
        sim.step()
        reference_sim.step()
        assert _observed(sim, jobs) == _observed(reference_sim, reference_jobs)
    assert len(sim) == len(reference_sim)


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

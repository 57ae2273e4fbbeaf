"""The EASY no-delay invariant, pinned as a property.

EASY's correctness condition: once the queue head is given a shadow
reservation, backfilled jobs must never push its actual start past that
reservation.  With reactive shadows the reservation can only move *earlier*
(early completions free nodes sooner), so the invariant is: every job starts
no later than the first shadow computed for it while it was the blocked
head.
"""

from hypothesis import given, settings, strategies as st

from repro.infra.cluster import Cluster
from repro.infra.job import Job
from repro.infra.scheduler import EasyBackfillScheduler
from repro.sim import Simulator
from tests.strategies import job_specs


class ShadowRecordingScheduler(EasyBackfillScheduler):
    """Records the first shadow laid down for each blocked head."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first_shadow: dict[int, float] = {}

    def _shadow(self, head):
        shadow = super()._shadow(head)
        self.first_shadow.setdefault(head.job_id, shadow)
        return shadow


@settings(max_examples=40, deadline=None)
@given(
    job_specs(min_size=3, max_size=30, max_walltime=120, max_offset=50),
    st.booleans(),
)
def test_head_never_starts_after_its_first_shadow(specs, sticky):
    sim = Simulator()
    cluster = Cluster("mach", nodes=8, cores_per_node=1)
    scheduler = ShadowRecordingScheduler(sim, cluster, sticky_shadow=sticky)
    jobs = []

    def submit_later(sim, delay, job):
        yield sim.timeout(delay)
        scheduler.submit(job)

    for cores, walltime, fraction, offset in specs:
        job = Job(
            user="u",
            account="acct",
            cores=cores,
            walltime=float(walltime),
            true_runtime=float(walltime) * fraction,
            job_id=sim.next_id("job"),
        )
        jobs.append(job)
        sim.process(submit_later(sim, float(offset), job))
    sim.run(until=50_000.0)

    for job in jobs:
        assert job.start_time is not None, "workload must drain"
        first_shadow = scheduler.first_shadow.get(job.job_id)
        if first_shadow is not None:
            assert job.start_time <= first_shadow + 1e-6, (
                f"job {job.job_id} started at {job.start_time}, "
                f"after its first shadow {first_shadow}"
            )


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=120),
        ),
        min_size=3,
        max_size=25,
    )
)
def test_sticky_head_never_starts_before_its_lock(specs):
    """Sticky mode's defining property: the head honours its reservation."""
    sim = Simulator()
    cluster = Cluster("mach", nodes=8, cores_per_node=1)
    scheduler = ShadowRecordingScheduler(sim, cluster, sticky_shadow=True)
    jobs = []
    for i, (cores, walltime) in enumerate(specs):
        job = Job(
            user="u",
            account="acct",
            cores=cores,
            walltime=float(walltime),
            # Short true runtimes maximize the early-drain temptation.
            true_runtime=float(walltime) * 0.1,
            job_id=sim.next_id("job"),
        )
        jobs.append(job)
        scheduler.submit(job)
    sim.run(until=100_000.0)
    for job in jobs:
        locked = scheduler.first_shadow.get(job.job_id)
        if locked is not None and job.start_time is not None:
            assert job.start_time >= locked - 1e-6

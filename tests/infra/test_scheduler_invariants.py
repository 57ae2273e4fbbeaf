"""Property tests pinning the scheduling policies' core invariants.

Three guarantees the experiment layer silently relies on:

* EASY backfill never *starves* the queue head — backfilled jobs may jump
  the queue, but the head starts no later than the shadow reservation it
  was given when it became blocked;
* fairshare's decayed-usage score is monotonically non-increasing between
  charge events (usage is only ever forgiven with time, never grows on its
  own), halving exactly every half-life;
* FCFS preserves arrival order under equal-priority ties — jobs start in
  exactly the order they were submitted.
"""

from hypothesis import given, settings, strategies as st

from repro.infra.cluster import Cluster
from repro.infra.job import Job
from repro.infra.scheduler import (
    EasyBackfillScheduler,
    FairshareScheduler,
    FcfsScheduler,
)
from repro.infra.units import DAY, HOUR
from repro.sim import Simulator
from tests.strategies import job_specs

_job_specs = job_specs(max_walltime=200, max_offset=100)


def _submit_workload(sim, scheduler, specs, user="u"):
    jobs = []

    def submit_later(sim, delay, job):
        yield sim.timeout(delay)
        scheduler.submit(job)

    for cores, walltime, fraction, offset in specs:
        job = Job(
            user=user,
            account="acct",
            cores=cores,
            walltime=float(walltime),
            true_runtime=float(walltime) * fraction,
            job_id=sim.next_id("job"),
        )
        jobs.append(job)
        sim.process(submit_later(sim, float(offset), job))
    return jobs


# -- backfill: no head starvation ---------------------------------------------

class _ShadowRecorder(EasyBackfillScheduler):
    """Records every shadow computed for each blocked head."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shadows: dict[int, list[float]] = {}

    def _shadow(self, head):
        shadow = super()._shadow(head)
        self.shadows.setdefault(head.job_id, []).append(shadow)
        return shadow


@settings(max_examples=40, deadline=None)
@given(_job_specs)
def test_backfill_never_starves_the_head_past_its_shadow(specs):
    """Whenever a job was the blocked head, it starts no later than the
    first shadow reservation laid down for it — backfilled jobs never push
    it back, no matter how much traffic arrives behind it."""
    sim = Simulator()
    cluster = Cluster("mach", nodes=8, cores_per_node=1)
    scheduler = _ShadowRecorder(sim, cluster)
    jobs = _submit_workload(sim, scheduler, specs)
    sim.run(until=100_000.0)

    for job in jobs:
        assert job.start_time is not None, "workload must drain"
        shadows = scheduler.shadows.get(job.job_id)
        if shadows:
            assert job.start_time <= shadows[0] + 1e-6, (
                f"job {job.job_id} started at {job.start_time}, past its "
                f"first shadow {shadows[0]}"
            )
            # Reactive shadows only ever move the reserved start *earlier*.
            for earlier, later in zip(shadows, shadows[1:]):
                assert later <= earlier + 1e-6


# -- fairshare: monotone decay -------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=100.0, max_value=1e6),  # first charge (node-seconds)
    st.lists(
        st.floats(min_value=1.0, max_value=10 * DAY), min_size=2, max_size=12
    ),  # sampling gaps
    st.floats(min_value=1 * HOUR, max_value=14 * DAY),  # half-life
)
def test_fairshare_usage_decays_monotonically_between_events(
    charge, gaps, half_life
):
    sim = Simulator()
    cluster = Cluster("mach", nodes=4, cores_per_node=1)
    scheduler = FairshareScheduler(sim, cluster, half_life=half_life)
    scheduler._charge_usage("alice", charge)

    samples = [scheduler.decayed_usage("alice")]
    for gap in gaps:
        sim.run(until=sim.now + gap)
        samples.append(scheduler.decayed_usage("alice"))

    assert samples[0] <= charge * (1 + 1e-9)
    for earlier, later in zip(samples, samples[1:]):
        assert later <= earlier * (1 + 1e-12), "usage grew without a charge"
    assert all(value >= 0.0 for value in samples)


def test_fairshare_usage_halves_at_the_half_life():
    sim = Simulator()
    cluster = Cluster("mach", nodes=4, cores_per_node=1)
    scheduler = FairshareScheduler(sim, cluster, half_life=2 * DAY)
    scheduler._charge_usage("alice", 1000.0)
    sim.run(until=2 * DAY)
    assert abs(scheduler.decayed_usage("alice") - 500.0) < 1e-6


def test_fairshare_charge_after_decay_adds_to_decayed_value():
    sim = Simulator()
    cluster = Cluster("mach", nodes=4, cores_per_node=1)
    scheduler = FairshareScheduler(sim, cluster, half_life=1 * DAY)
    scheduler._charge_usage("alice", 800.0)
    sim.run(until=1 * DAY)  # decays to 400
    scheduler._charge_usage("alice", 100.0)
    assert abs(scheduler.decayed_usage("alice") - 500.0) < 1e-6


# -- FCFS: arrival order under ties --------------------------------------------

@settings(max_examples=40, deadline=None)
@given(_job_specs)
def test_fcfs_preserves_arrival_order_under_equal_priority(specs):
    """With all priorities equal, FCFS starts jobs in exactly the order
    they arrived — a later arrival never runs first."""
    sim = Simulator()
    cluster = Cluster("mach", nodes=8, cores_per_node=1)
    scheduler = FcfsScheduler(sim, cluster)
    arrived, started = [], []
    jobs = _submit_workload(sim, scheduler, specs)
    original_submit, original_start = scheduler.submit, scheduler._start

    def recording_submit(job):
        arrived.append(job.job_id)
        return original_submit(job)

    def recording_start(job):
        started.append(job.job_id)
        original_start(job)

    scheduler.submit, scheduler._start = recording_submit, recording_start
    sim.run(until=200_000.0)

    assert len(started) == len(jobs), "workload must drain"
    arrival_rank = {job_id: rank for rank, job_id in enumerate(arrived)}
    ranks = [arrival_rank[job_id] for job_id in started]
    assert ranks == sorted(ranks), "a later arrival started before an earlier one"


def test_ordered_queue_breaks_equal_priority_by_arrival():
    """The base ordering itself: equal priorities fall back to FIFO."""
    sim = Simulator()
    cluster = Cluster("mach", nodes=1, cores_per_node=1)
    scheduler = FcfsScheduler(sim, cluster)
    blocker = Job(
        user="u", account="acct", cores=1, walltime=50.0, true_runtime=50.0,
        job_id=sim.next_id("job"),
    )
    scheduler.submit(blocker)  # occupies the machine
    waiting = [
        Job(
            user="u", account="acct", cores=1, walltime=10.0, true_runtime=10.0,
            job_id=sim.next_id("job"),
        )
        for _ in range(5)
    ]
    for job in waiting:
        scheduler.submit(job)
    assert [job.job_id for job in scheduler._ordered_queue()] == [
        job.job_id for job in waiting
    ]
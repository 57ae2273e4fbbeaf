"""Tests for scheduled maintenance windows."""

import pytest

import repro.infra as I
from repro.infra.cluster import Cluster
from repro.infra.job import Job, JobState
from repro.infra.scheduler import EasyBackfillScheduler
from repro.infra.units import DAY, HOUR, WEEK
from repro.sim import Simulator


def test_jobs_do_not_cross_maintenance_window():
    sim = Simulator()
    cluster = Cluster("mach", nodes=4, cores_per_node=1)
    scheduler = EasyBackfillScheduler(sim, cluster)
    I.MaintenanceSchedule(
        sim, scheduler, period=WEEK, duration=8 * HOUR,
        first=2 * DAY, lead=3 * DAY,
    )
    # Submitted 1 day before the window with a 2-day walltime: must wait.
    long_job = Job(user="u", account="a", cores=4, walltime=2 * DAY,
                   true_runtime=2 * DAY, job_id=sim.next_id("job"))

    def submit_later(sim):
        yield sim.timeout(1 * DAY)
        scheduler.submit(long_job)

    sim.process(submit_later(sim))
    sim.run(until=WEEK)
    assert long_job.start_time == 2 * DAY + 8 * HOUR  # after the PM window


def test_short_job_runs_before_window():
    sim = Simulator()
    cluster = Cluster("mach", nodes=4, cores_per_node=1)
    scheduler = EasyBackfillScheduler(sim, cluster)
    I.MaintenanceSchedule(
        sim, scheduler, period=WEEK, duration=8 * HOUR,
        first=2 * DAY, lead=3 * DAY,
    )
    quick = Job(user="u", account="a", cores=4, walltime=HOUR,
                true_runtime=HOUR, job_id=sim.next_id("job"))

    def submit_later(sim):
        yield sim.timeout(1 * DAY)
        scheduler.submit(quick)

    sim.process(submit_later(sim))
    sim.run(until=3 * DAY)
    assert quick.start_time == 1 * DAY


def test_windows_recur():
    sim = Simulator()
    cluster = Cluster("mach", nodes=2, cores_per_node=1)
    scheduler = EasyBackfillScheduler(sim, cluster)
    schedule = I.MaintenanceSchedule(
        sim, scheduler, period=WEEK, duration=4 * HOUR,
        first=1 * DAY, lead=12 * HOUR,
    )
    sim.run(until=3 * WEEK)
    assert schedule.windows_taken == 3


def test_validation():
    sim = Simulator()
    cluster = Cluster("mach", nodes=2, cores_per_node=1)
    scheduler = EasyBackfillScheduler(sim, cluster)
    with pytest.raises(ValueError):
        I.MaintenanceSchedule(sim, scheduler, period=HOUR, duration=2 * HOUR)
    with pytest.raises(ValueError):
        I.MaintenanceSchedule(sim, scheduler, lead=-1.0)

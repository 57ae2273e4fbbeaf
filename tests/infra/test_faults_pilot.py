"""Tests for fault injection and pilot jobs."""

import numpy as np
import pytest

import repro.infra as I
from repro.infra.job import Job, JobState
from repro.infra.pilot import PilotTask
from repro.infra.units import DAY, HOUR
from repro.sim import Simulator


def make_site(nodes=8, cores_per_node=4):
    sim = Simulator()
    ledger = I.AllocationLedger()
    ledger.create("acct", I.AllocationType.RESEARCH, 1e12, users={"u"})
    central = I.CentralAccountingDB()
    cluster = I.Cluster("mach", nodes=nodes, cores_per_node=cores_per_node)
    site = I.ResourceProvider(sim, cluster, ledger, central)
    return sim, site, central


def job(sim, cores=4, walltime=10 * HOUR, runtime=None):
    return Job(user="u", account="acct", cores=cores, walltime=walltime,
               true_runtime=walltime if runtime is None else runtime,
               job_id=sim.next_id("job"))


# -------------------------------------------------------------------- faults


def test_fault_injector_kills_jobs_as_failed():
    sim, site, central = make_site()
    injector = I.NodeFailureInjector(
        sim,
        site.scheduler,
        np.random.default_rng(3),
        node_mtbf=20 * HOUR,  # absurdly flaky machine
        tick=0.1 * HOUR,
    )
    jobs = [job(sim, cores=4, walltime=24 * HOUR) for _ in range(8)]
    for j in jobs:
        site.submit(j)
    sim.run(until=3 * DAY)
    assert injector.failures_injected > 0
    failed = [j for j in jobs if j.state is JobState.FAILED]
    assert len(failed) == injector.failures_injected
    # Failed jobs freed their nodes: everything eventually ran.
    assert all(j.start_time is not None for j in jobs)


def test_fault_injector_charges_partial_time():
    sim, site, central = make_site()
    I.NodeFailureInjector(
        sim, site.scheduler, np.random.default_rng(1),
        node_mtbf=5 * HOUR, tick=0.05 * HOUR,
    )
    victim = job(sim, cores=32, walltime=100 * HOUR)
    site.submit(victim)
    sim.run(until=200 * HOUR)
    site.feed.drain()
    assert victim.state is JobState.FAILED
    record = central.all_records()[0]
    assert record.final_state is JobState.FAILED
    assert 0 < record.charged_nu < 3200  # partial, not full walltime


def test_fault_injector_reliable_machine_harmless():
    sim, site, _ = make_site()
    injector = I.NodeFailureInjector(
        sim, site.scheduler, np.random.default_rng(0),
        node_mtbf=1e12 * HOUR,
    )
    j = job(sim, cores=4, walltime=HOUR, runtime=HOUR / 2)
    site.submit(j)
    sim.run(until=2 * HOUR)
    assert j.state is JobState.COMPLETED
    assert injector.failures_injected == 0


def test_fault_injector_validation():
    sim, site, _ = make_site()
    with pytest.raises(ValueError):
        I.NodeFailureInjector(
            sim, site.scheduler, np.random.default_rng(0), node_mtbf=0.0
        )


# -------------------------------------------------------------------- pilots


def test_pilot_runs_tasks_inside_one_job():
    sim, site, central = make_site()
    manager = I.PilotManager(sim)
    pilot = manager.launch(
        site, user="u", account="acct", cores=16, walltime=10 * HOUR
    )
    for _ in range(8):
        pilot.submit_task(PilotTask(cores=4, runtime=HOUR))
    sim.run(until=2 * DAY)
    site.feed.drain()
    assert len(pilot.completed) == 8
    assert not pilot.lost
    # Accounting sees exactly one job for the whole ensemble.
    assert len(central) == 1
    record = central.all_records()[0]
    assert record.final_state is JobState.KILLED_WALLTIME
    assert record.cores == 16


def test_pilot_parallelism_bounded_by_cores():
    sim, site, _ = make_site()
    manager = I.PilotManager(sim)
    pilot = manager.launch(
        site, user="u", account="acct", cores=8, walltime=10 * HOUR
    )
    # 4 two-core tasks of 1h: 4 at a time -> all done 1h after start.
    for _ in range(8):
        pilot.submit_task(PilotTask(cores=2, runtime=HOUR))
    sim.run(until=DAY)
    ends = sorted(t.finished_at for t in pilot.completed)
    assert len(ends) == 8
    start = pilot.job.start_time
    assert ends[3] == pytest.approx(start + HOUR)
    assert ends[7] == pytest.approx(start + 2 * HOUR)


def test_pilot_truncates_tasks_at_walltime():
    sim, site, _ = make_site()
    manager = I.PilotManager(sim)
    pilot = manager.launch(
        site, user="u", account="acct", cores=4, walltime=2 * HOUR
    )
    for _ in range(6):
        pilot.submit_task(PilotTask(cores=4, runtime=HOUR))
    sim.run(until=DAY)
    assert len(pilot.completed) == 2  # one per hour of pilot lifetime
    assert len(pilot.lost) == 4


def test_pilot_tasks_can_be_submitted_while_active():
    sim, site, _ = make_site()
    manager = I.PilotManager(sim)
    pilot = manager.launch(
        site, user="u", account="acct", cores=4, walltime=5 * HOUR
    )

    def late_submitter(sim):
        yield sim.timeout(2 * HOUR)
        pilot.submit_task(PilotTask(cores=4, runtime=HOUR))

    sim.process(late_submitter(sim))
    sim.run(until=DAY)
    assert len(pilot.completed) == 1


def test_pilot_task_validation():
    with pytest.raises(ValueError):
        PilotTask(cores=0, runtime=10.0)
    with pytest.raises(ValueError):
        PilotTask(cores=1, runtime=0.0)
    sim, site, _ = make_site()
    pilot = I.PilotManager(sim).launch(
        site, user="u", account="acct", cores=4, walltime=HOUR
    )
    with pytest.raises(ValueError):
        pilot.submit_task(PilotTask(cores=8, runtime=10.0))


def test_pilot_never_starting_loses_all_tasks():
    sim, site, _ = make_site(nodes=1, cores_per_node=1)
    blocker = job(sim, cores=1, walltime=100 * HOUR)
    site.submit(blocker)
    manager = I.PilotManager(sim)
    pilot = manager.launch(
        site, user="u", account="acct", cores=1, walltime=HOUR
    )
    pilot.submit_task(PilotTask(cores=1, runtime=600.0))
    site.cancel(pilot.job)
    sim.run(until=10 * HOUR)
    assert not pilot.is_active
    assert len(pilot.lost) == 1
    assert not pilot.completed


def test_wait_for_start_event():
    sim, site, _ = make_site(nodes=1, cores_per_node=1)
    blocker = job(sim, cores=1, walltime=2 * HOUR, runtime=2 * HOUR)
    waiter = job(sim, cores=1, walltime=HOUR)
    site.submit(blocker)
    site.submit(waiter)
    log = []

    def watch(sim):
        started = yield site.scheduler.wait_for_start(waiter)
        log.append((sim.now, started.job_id if started else None))

    sim.process(watch(sim))
    sim.run(until=10 * HOUR)
    assert log == [(2 * HOUR, waiter.job_id)]

"""Node failures interacting with maintenance drains.

A job killed by a node failure while the scheduler is draining toward a
PM window exercises both bookkeeping paths at once: the failure frees the
job's nodes, and the reservation must not free (or hold) them a second
time.  These tests pin the invariants: node accounting never goes out of
bounds, every terminal job yields exactly one usage record (the central DB
raises on duplicate job ids, so a double-emit cannot hide), and ledger
charges equal the sum of the records.
"""

import itertools

import numpy as np
import pytest

import repro.infra as I
from repro.infra.job import Job, JobState
from repro.infra.scheduler.base import Reservation
from repro.infra.units import DAY, HOUR
from repro.sim import Simulator

TERMINAL = (
    JobState.COMPLETED,
    JobState.FAILED,
    JobState.KILLED_WALLTIME,
    JobState.CANCELLED,
)


def make_site(nodes=8, cores_per_node=4):
    sim = Simulator()
    ledger = I.AllocationLedger()
    ledger.create("acct", I.AllocationType.RESEARCH, 1e12, users={"u"})
    central = I.CentralAccountingDB()
    cluster = I.Cluster("mach", nodes=nodes, cores_per_node=cores_per_node)
    site = I.ResourceProvider(sim, cluster, ledger, central)
    return sim, site, central, ledger


_ids = itertools.count(1)


def job(cores=4, walltime=10 * HOUR, runtime=None):
    return Job(user="u", account="acct", cores=cores, walltime=walltime,
               true_runtime=walltime if runtime is None else runtime,
               job_id=next(_ids))


def announce_drains(sim, scheduler, first, period, duration, lead, until):
    """Lay full-machine ``access=None`` windows, each ``lead`` ahead of it."""
    start = first
    while start - lead < until:
        yield sim.timeout(start - lead - sim.now)
        scheduler.add_reservation(
            Reservation(start=start, end=start + duration,
                        nodes=scheduler.cluster.nodes, access=None, label="pm")
        )
        start += period


def run_flaky_maintained_site(seed):
    """A flaky machine with PM windows and a steady queue; returns the world."""
    sim, site, central, ledger = make_site()
    # 6-hour windows every 2 days, each announced 8 hours ahead.
    sim.process(announce_drains(
        sim, site.scheduler, first=12 * HOUR, period=2 * DAY,
        duration=6 * HOUR, lead=8 * HOUR, until=8 * DAY,
    ))
    injector = I.NodeFailureInjector(
        sim, site.scheduler, np.random.default_rng(seed),
        node_mtbf=30 * HOUR,  # flaky enough that kills land inside drains
        tick=0.25 * HOUR,
    )
    jobs = [job(cores=4, walltime=9 * HOUR) for _ in range(24)]

    def trickle(sim):
        for j in jobs:
            site.submit(j)
            yield sim.timeout(1.5 * HOUR)

    sim.process(trickle(sim))

    violations = []

    def monitor(sim):
        while True:
            free = site.scheduler.free_nodes
            if not 0 <= free <= site.cluster.nodes:
                violations.append((sim.now, free))
            yield sim.timeout(0.1 * HOUR)

    sim.process(monitor(sim))
    sim.run(until=8 * DAY)
    site.feed.drain()
    return injector, jobs, central, ledger, violations


def test_failures_during_drain_never_double_free():
    injector, jobs, central, ledger, violations = run_flaky_maintained_site(7)
    assert injector.failures_injected > 0, "scenario must actually inject"
    assert violations == [], f"free-node accounting out of bounds: {violations}"
    # Every job reached a terminal state: failures freed their nodes even
    # when they landed inside a drain, so nothing wedged the machine.
    assert all(j.state in TERMINAL for j in jobs)


def test_exactly_one_record_per_terminal_job():
    injector, jobs, central, ledger, _ = run_flaky_maintained_site(11)
    failed = [j for j in jobs if j.state is JobState.FAILED]
    assert failed, "scenario must kill at least one job"
    # ingest() raises on duplicate job ids, so reaching this point already
    # proves no job was emitted twice; check nothing was dropped either.
    records = central.all_records()
    assert len(records) == len(jobs)
    assert {r.job_id for r in records} == {j.job_id for j in jobs}


def test_charges_match_records_exactly():
    injector, jobs, central, ledger, _ = run_flaky_maintained_site(23)
    records = central.all_records()
    # A double-charged kill would show up as ledger > sum(records).
    assert ledger.total_charged() == pytest.approx(
        sum(r.charged_nu for r in records)
    )
    for record in records:
        if record.final_state is JobState.FAILED:
            assert record.charged_nu >= 0.0


def test_multiple_kills_in_one_tick():
    """Poisson strikes can fell several distinct jobs in a single tick."""
    sim, site, central, ledger = make_site(nodes=8)
    injector = I.NodeFailureInjector(
        sim, site.scheduler, np.random.default_rng(5),
        node_mtbf=2 * HOUR,  # expected strikes per tick ~ 4
        tick=1 * HOUR,
    )
    jobs = [job(cores=4, walltime=20 * HOUR) for _ in range(8)]
    for j in jobs:
        site.submit(j)
    sim.run(until=1.5 * HOUR)  # exactly one injector tick has elapsed
    failed = [j for j in jobs if j.state is JobState.FAILED]
    assert len(failed) >= 2, "one tick should strike more than one job"
    assert len(failed) == injector.failures_injected
    assert len({j.job_id for j in failed}) == len(failed)  # distinct victims


def test_injection_is_seed_stable():
    first = run_flaky_maintained_site(7)
    second = run_flaky_maintained_site(7)
    assert first[0].failures_injected == second[0].failures_injected
    assert [j.state for j in first[1]] == [j.state for j in second[1]]
    assert [j.end_time for j in first[1]] == [j.end_time for j in second[1]]


def test_no_strikes_on_nodes_inside_active_maintenance_window():
    """An active full-machine drain shields running work from node strikes.

    The drained slice is powered down for service, so its nodes cannot
    strike; with the whole machine behind an (emergency) maintenance
    reservation, a running job sees zero failures even at an absurd MTBF —
    and strikes resume the moment the window lifts.
    """
    sim, site, central, ledger = make_site(nodes=8)
    injector = I.NodeFailureInjector(
        sim, site.scheduler, np.random.default_rng(2),
        node_mtbf=0.1 * HOUR,  # ~10 expected strikes per node-hour
        tick=0.25 * HOUR,
    )
    victim = job(cores=8, walltime=30 * HOUR)  # 2 of 8 nodes busy
    site.submit(victim)
    sim.run(until=0.1 * HOUR)  # job is running before the window opens
    site.scheduler.add_reservation(
        Reservation(start=sim.now, end=10 * HOUR, nodes=8, access=None,
                    label="emergency-pm")
    )
    sim.run(until=9.9 * HOUR)  # stop just shy of the window-end tick
    assert victim.state is JobState.RUNNING
    assert injector.failures_injected == 0, (
        "nodes inside an active maintenance window must not strike"
    )
    sim.run(until=14 * HOUR)  # window over: exposure (and strikes) return
    assert injector.failures_injected > 0
    assert victim.state is JobState.FAILED

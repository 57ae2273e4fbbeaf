"""Tests for the resource provider (site) integration."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import repro.infra as I
from repro.infra.job import Job, JobState
from repro.infra.units import HOUR
from repro.sim import Simulator


def make_site(nodes=8, cores_per_node=4, nu=1.0, budget=1e9):
    sim = Simulator()
    ledger = I.AllocationLedger()
    ledger.create("acct", I.AllocationType.RESEARCH, budget, users={"alice"})
    central = I.CentralAccountingDB()
    cluster = I.Cluster("mach", nodes=nodes, cores_per_node=cores_per_node,
                        nu_per_core_hour=nu)
    site = I.ResourceProvider(sim, cluster, ledger, central)
    return sim, site, ledger, central


_ids = itertools.count(1)


def job(cores=4, walltime=HOUR, runtime=None, user="alice", account="acct"):
    return Job(
        user=user,
        account=account,
        cores=cores,
        walltime=walltime,
        true_runtime=walltime if runtime is None else runtime,
        job_id=next(_ids),
    )


def test_submit_runs_and_charges():
    sim, site, ledger, central = make_site(nu=2.0)
    j = job(cores=8, walltime=HOUR, runtime=HOUR / 2)
    site.submit(j)
    sim.run(until=HOUR)
    site.feed.drain()
    # 8 cores x 0.5 h x 2.0 NU = 8 NU
    assert j.charged_nu == pytest.approx(8.0)
    assert ledger.total_charged() == pytest.approx(8.0)
    assert central.total_nu() == pytest.approx(8.0)


def test_unknown_account_rejected():
    sim, site, *_ = make_site()
    with pytest.raises(KeyError):
        site.submit(job(account="nope"))


def test_user_not_on_account_rejected():
    sim, site, *_ = make_site()
    with pytest.raises(PermissionError):
        site.submit(job(user="mallory"))


def test_cancelled_unstarted_job_charges_nothing():
    sim, site, ledger, central = make_site(nodes=1, cores_per_node=1)
    blocker = job(cores=1, walltime=10 * HOUR)
    victim = job(cores=1, walltime=HOUR)
    site.submit(blocker)
    site.submit(victim)
    site.cancel(victim)
    sim.run(until=20 * HOUR)
    site.feed.drain()
    assert victim.charged_nu == 0.0
    records = {r.job_id: r for r in central.all_records()}
    assert records[victim.job_id].charged_nu == 0.0
    assert records[victim.job_id].final_state is JobState.CANCELLED


def test_walltime_killed_job_charged_full_walltime():
    sim, site, ledger, _ = make_site()
    j = job(cores=4, walltime=HOUR, runtime=10 * HOUR)
    site.submit(j)
    sim.run(until=2 * HOUR)
    assert j.state is JobState.KILLED_WALLTIME
    assert j.charged_nu == pytest.approx(4.0)  # 4 cores x 1 h


def test_status_snapshot_fields():
    sim, site, *_ = make_site(nodes=8)
    for _ in range(3):
        site.submit(job(cores=32, walltime=HOUR))  # each fills the machine
    snap = site.status_snapshot()
    assert snap["resource"] == "mach"
    assert snap["total_nodes"] == 8
    assert snap["free_nodes"] == 0
    assert snap["running_jobs"] == 1
    assert snap["queued_jobs"] == 2
    assert snap["pending_node_seconds"] == pytest.approx(2 * 8 * HOUR)


def test_one_record_per_terminal_job():
    sim, site, _, central = make_site()
    jobs = [job(cores=2, walltime=HOUR / 4) for _ in range(20)]
    for j in jobs:
        site.submit(j)
    sim.run(until=30 * HOUR)
    site.feed.drain()
    assert len(central) == 20
    assert {r.job_id for r in central.all_records()} == {j.job_id for j in jobs}


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=32),  # cores
            st.floats(min_value=60.0, max_value=4 * HOUR),  # walltime
            st.floats(min_value=0.1, max_value=1.5),  # runtime fraction
        ),
        min_size=1,
        max_size=15,
    )
)
def test_charge_conservation(specs):
    """Property: sum of charges == sum of cores x elapsed x rate, and the
    ledger, the jobs and the central DB all agree."""
    sim, site, ledger, central = make_site(nu=1.5)
    jobs = []
    for cores, walltime, fraction in specs:
        j = job(cores=cores, walltime=walltime, runtime=walltime * fraction)
        jobs.append(j)
        site.submit(j)
    sim.run(until=1000 * HOUR)
    site.feed.drain()
    expected = sum(
        1.5 * j.cores * (j.end_time - j.start_time) / HOUR for j in jobs
    )
    assert ledger.total_charged() == pytest.approx(expected)
    assert central.total_nu() == pytest.approx(expected)
    assert sum(j.charged_nu for j in jobs) == pytest.approx(expected)


def test_record_carries_allocation_field_of_science():
    sim = Simulator()
    ledger = I.AllocationLedger()
    ledger.create(
        "acct",
        I.AllocationType.RESEARCH,
        1e9,
        users={"alice"},
        field_of_science="Physics",
    )
    central = I.CentralAccountingDB()
    cluster = I.Cluster("mach", nodes=4, cores_per_node=4)
    site = I.ResourceProvider(sim, cluster, ledger, central)
    j = job(cores=4, walltime=HOUR, runtime=HOUR / 2)
    site.submit(j)
    sim.run(until=2 * HOUR)
    site.feed.drain()
    record = central.all_records()[0]
    assert record.field_of_science == "Physics"

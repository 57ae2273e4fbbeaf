"""Tests for submission interfaces and science gateways."""

import numpy as np
import pytest

import repro.infra as I
from repro.infra.job import AttributeKeys, Job
from repro.infra.units import HOUR
from repro.sim import Simulator


def make_site():
    sim = Simulator()
    ledger = I.AllocationLedger()
    ledger.create("acct", I.AllocationType.RESEARCH, 1e9, users={"alice"})
    ledger.create(
        "community", I.AllocationType.COMMUNITY, 1e9, users={"gw_portal"}
    )
    central = I.CentralAccountingDB()
    cluster = I.Cluster("mach", nodes=8, cores_per_node=4)
    site = I.ResourceProvider(sim, cluster, ledger, central)
    return sim, site, central


def test_login_submitter_stamps_interface():
    sim, site, central = make_site()
    job = Job(user="alice", account="acct", cores=4, walltime=HOUR,
              true_runtime=HOUR / 2, job_id=sim.next_id("job"))
    I.LoginSubmitter().submit(site, job)
    sim.run(until=2 * HOUR)
    assert job.attributes[AttributeKeys.SUBMIT_INTERFACE] == "login"


def test_gram_submitter_stamps_and_counts():
    sim, site, central = make_site()
    submitter = I.GramSubmitter()
    for _ in range(3):
        job = Job(user="alice", account="acct", cores=1, walltime=HOUR,
                  true_runtime=60.0, job_id=sim.next_id("job"))
        submitter.submit(site, job)
    assert submitter.submissions["alice"] == 3
    assert job.attributes[AttributeKeys.SUBMIT_INTERFACE] == "gram"


def gateway(coverage, seed=0):
    return I.ScienceGateway(
        name="nanoportal",
        community_user="gw_portal",
        community_account="community",
        rng=np.random.default_rng(seed),
        tagging_coverage=coverage,
    )


def test_gateway_jobs_run_under_community_account():
    sim, site, central = make_site()
    gw = gateway(coverage=1.0)
    job = gw.submit(site, "enduser-1", cores=1, walltime=HOUR,
                    true_runtime=60.0)
    sim.run(until=2 * HOUR)
    site.feed.drain()
    record = central.all_records()[0]
    assert record.user == "gw_portal"
    assert record.account == "community"
    assert record.attributes[AttributeKeys.SUBMIT_INTERFACE] == "gateway"
    assert record.attributes[AttributeKeys.GATEWAY_NAME] == "nanoportal"
    assert record.attributes[AttributeKeys.GATEWAY_USER] == "enduser-1"
    assert job.true_user == "enduser-1"


def test_gateway_coverage_zero_never_tags():
    sim, site, central = make_site()
    gw = gateway(coverage=0.0)
    for i in range(20):
        gw.submit(site, f"user-{i}", cores=1, walltime=HOUR, true_runtime=60.0)
    sim.run(until=10 * HOUR)
    site.feed.drain()
    for record in central.all_records():
        assert AttributeKeys.GATEWAY_USER not in record.attributes
    assert gw.jobs_tagged == 0
    assert len(gw.end_users_served) == 20


def test_gateway_coverage_partial_tags_roughly_that_fraction():
    sim, site, central = make_site()
    gw = gateway(coverage=0.5, seed=42)
    for i in range(200):
        gw.submit(site, f"user-{i % 40}", cores=1, walltime=HOUR,
                  true_runtime=60.0)
    assert gw.jobs_submitted == 200
    assert 70 < gw.jobs_tagged < 130
    assert len(gw.end_users_served) == 40


def test_gateway_coverage_validation():
    with pytest.raises(ValueError):
        gateway(coverage=1.5)

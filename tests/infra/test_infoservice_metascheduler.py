"""Tests for the information service and metascheduler."""

import itertools

import numpy as np
import pytest

import repro.infra as I
from repro.infra.job import Job
from repro.infra.metascheduler import SelectionStrategy
from repro.infra.units import HOUR, MINUTE
from repro.sim import Simulator


def make_federation(n_sites=3, nodes=4):
    sim = Simulator()
    ledger = I.AllocationLedger()
    ledger.create("acct", I.AllocationType.RESEARCH, 1e12, users={"alice"})
    central = I.CentralAccountingDB()
    providers = [
        I.ResourceProvider(
            sim,
            I.Cluster(f"site{i}", nodes=nodes, cores_per_node=1),
            ledger,
            central,
        )
        for i in range(n_sites)
    ]
    return sim, providers


_ids = itertools.count(1)


def job(cores=1, walltime=HOUR):
    return Job(user="alice", account="acct", cores=cores, walltime=walltime,
               true_runtime=walltime, job_id=next(_ids))


def test_info_service_publishes_periodically():
    sim, providers = make_federation()
    info = I.InformationService(sim, providers, publish_interval=5 * MINUTE)
    providers[0].submit(job(cores=4, walltime=10 * HOUR))
    # Snapshot is stale until the next publication.
    assert info.query("site0")["running_jobs"] == 0
    sim.run(until=6 * MINUTE)
    assert info.query("site0")["running_jobs"] == 1
    assert info.query("site0")["time"] == 5 * MINUTE  # the first publication


def test_info_service_validation():
    sim, providers = make_federation()
    with pytest.raises(ValueError):
        I.InformationService(sim, providers, publish_interval=0.0)
    with pytest.raises(ValueError):
        I.InformationService(sim, [])
    info = I.InformationService(sim, providers)
    with pytest.raises(KeyError):
        info.query("nowhere")


def test_random_strategy_requires_rng():
    _, providers = make_federation()
    with pytest.raises(ValueError):
        I.Metascheduler(providers, SelectionStrategy.RANDOM)


def test_least_loaded_requires_info_service():
    _, providers = make_federation()
    with pytest.raises(ValueError):
        I.Metascheduler(providers, SelectionStrategy.LEAST_LOADED)


def test_round_robin_cycles_sites():
    _, providers = make_federation(n_sites=3)
    meta = I.Metascheduler(providers, SelectionStrategy.ROUND_ROBIN)
    picks = [meta.select(job()).name for _ in range(6)]
    assert picks == ["site0", "site1", "site2", "site0", "site1", "site2"]


def test_selection_skips_too_small_sites():
    _, providers = make_federation(n_sites=2, nodes=4)
    big_site = providers[1]
    # Make site1 bigger so only it fits the large job.
    sim = big_site.sim
    meta = I.Metascheduler(providers, SelectionStrategy.ROUND_ROBIN)
    with pytest.raises(ValueError):
        meta.select(job(cores=100))
    small = job(cores=4)
    assert meta.select(small).name in {"site0", "site1"}


def test_predicted_start_picks_idle_site():
    sim, providers = make_federation(n_sites=2)
    # Load site0 heavily.
    for _ in range(5):
        providers[0].submit(job(cores=4, walltime=10 * HOUR))
    meta = I.Metascheduler(providers, SelectionStrategy.PREDICTED_START)
    assert meta.select(job()).name == "site1"


def test_least_loaded_uses_stale_snapshots():
    sim, providers = make_federation(n_sites=2)
    info = I.InformationService(sim, providers, publish_interval=1 * HOUR)
    meta = I.Metascheduler(
        providers,
        SelectionStrategy.LEAST_LOADED,
        info_service=info,
    )
    # Queue work on site0 *after* the initial publication: the stale view
    # still says both sites are empty, so ties break by name -> site0.
    for _ in range(5):
        providers[0].submit(job(cores=4, walltime=10 * HOUR))
    assert meta.select(job()).name == "site0"
    sim.run(until=1 * HOUR + 1)
    assert meta.select(job()).name == "site1"  # fresh view sees the load


def test_random_strategy_selects_uniformly():
    _, providers = make_federation(n_sites=2)
    meta = I.Metascheduler(
        providers, SelectionStrategy.RANDOM, rng=np.random.default_rng(7)
    )
    picks = {meta.select(job()).name for _ in range(50)}
    assert picks == {"site0", "site1"}


def test_submit_forwards_to_chosen_site():
    sim, providers = make_federation(n_sites=2)
    meta = I.Metascheduler(providers, SelectionStrategy.ROUND_ROBIN)
    j = job()
    chosen = meta.submit(j)
    assert j.resource == chosen.name
    assert meta.selections[chosen.name] == 1

"""Tests for named queues and routing."""

import itertools

import pytest

import repro.infra as I
from repro.infra.cluster import Cluster
from repro.infra.job import AttributeKeys, Job
from repro.infra.queues import QueueSet, QueueSpec, default_queues
from repro.infra.units import DAY, HOUR
from repro.sim import Simulator


def cluster():
    return Cluster("mach", nodes=32, cores_per_node=8)  # 256 cores


_ids = itertools.count(1)


def job(cores=8, walltime=HOUR, interactive=False, priority=0.0):
    attributes = {AttributeKeys.INTERACTIVE: True} if interactive else {}
    return Job(
        user="u", account="acct", cores=cores, walltime=walltime,
        true_runtime=walltime, job_id=next(_ids), attributes=attributes,
        priority=priority,
    )


def test_default_routing_by_shape():
    queues = default_queues(cluster())
    assert queues.route(job(cores=8, walltime=4 * HOUR)).name == "normal"
    assert queues.route(job(cores=200, walltime=12 * HOUR)).name == "wide"
    assert queues.route(job(cores=8, walltime=3 * DAY)).name == "long"
    assert queues.route(job(cores=200, walltime=3 * DAY)).name == "special"
    assert queues.route(job(cores=4, walltime=HOUR, interactive=True)).name == (
        "interactive"
    )


def test_interactive_queue_never_takes_batch_work():
    queues = default_queues(cluster())
    # A tiny short batch job still goes to normal, not interactive.
    assert queues.route(job(cores=1, walltime=600.0)).name == "normal"


def test_oversized_interactive_falls_back():
    queues = default_queues(cluster())
    routed = queues.route(job(cores=200, walltime=HOUR, interactive=True))
    assert routed.name == "wide"


def test_unroutable_job_rejected():
    queues = QueueSet([QueueSpec(name="normal", max_walltime=HOUR, max_cores=8)])
    with pytest.raises(ValueError):
        queues.route(job(cores=16, walltime=HOUR))


def test_queue_set_validation():
    with pytest.raises(ValueError):
        QueueSet([])
    spec = QueueSpec(name="q", max_walltime=HOUR, max_cores=8)
    with pytest.raises(ValueError):
        QueueSet([spec, spec])
    with pytest.raises(ValueError):
        QueueSpec(name="bad", max_walltime=0.0, max_cores=8)
    queues = QueueSet([spec])
    assert queues.get("q") is spec
    with pytest.raises(KeyError):
        queues.get("missing")


def test_site_records_routed_queue_and_boost():
    sim = Simulator()
    ledger = I.AllocationLedger()
    ledger.create("acct", I.AllocationType.RESEARCH, 1e9, users={"u"})
    central = I.CentralAccountingDB()
    site = I.ResourceProvider(sim, cluster(), ledger, central)
    wide = job(cores=200, walltime=12 * HOUR)
    site.submit(wide)
    assert wide.queue == "wide"
    assert wide.priority == 10.0  # wide queue boost
    sim.run(until=2 * DAY)
    site.feed.drain()
    record = central.all_records()[0]
    assert record.queue_name == "wide"


def test_custom_queue_set_on_site():
    sim = Simulator()
    ledger = I.AllocationLedger()
    ledger.create("acct", I.AllocationType.RESEARCH, 1e9, users={"u"})
    central = I.CentralAccountingDB()
    only_short = I.QueueSet(
        [I.QueueSpec(name="short", max_walltime=2 * HOUR, max_cores=256)]
    )
    site = I.ResourceProvider(sim, cluster(), ledger, central, queues=only_short)
    accepted = job(walltime=HOUR)
    site.submit(accepted)
    assert accepted.queue == "short"
    with pytest.raises(ValueError):
        site.submit(job(walltime=3 * HOUR))

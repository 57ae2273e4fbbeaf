"""Unplanned site outages: injector, site state machine, gateway backlog,
pilot re-provisioning, and stale information-service views.

These pin the mechanics the A4 ablation leans on: outage schedules are a
pure function of the stream seed, queued work survives a whole-site outage
while running work dies, gateways hold requests through a backend outage and
drain them on recovery, pilots re-provision after infrastructure death, and
the info service keeps lying about a dead site for exactly the propagation
window.
"""

import numpy as np
import pytest

import repro.infra as I
from repro.infra.job import Job, JobState
from repro.infra.resilience import OutagePolicy, SiteOutageInjector
from repro.infra.units import DAY, HOUR, MINUTE
from repro.sim import Simulator


def make_site(nodes=8, cores_per_node=4, name="mach"):
    sim = Simulator()
    ledger = I.AllocationLedger()
    ledger.create("acct", I.AllocationType.RESEARCH, 1e12, users={"u", "gw"})
    central = I.CentralAccountingDB()
    cluster = I.Cluster(name, nodes=nodes, cores_per_node=cores_per_node)
    site = I.ResourceProvider(sim, cluster, ledger, central)
    return sim, site, central, ledger


def job(sim, cores=4, walltime=10 * HOUR, runtime=None):
    return Job(user="u", account="acct", cores=cores, walltime=walltime,
               true_runtime=walltime if runtime is None else runtime,
               job_id=sim.next_id("job"))


# -- site state machine ----------------------------------------------------

def test_mark_down_kills_running_preserves_queue():
    sim, site, central, _ = make_site(nodes=2)
    running = job(sim, cores=8, walltime=10 * HOUR)   # fills the machine
    queued = job(sim, cores=8, walltime=2 * HOUR)     # must wait behind it
    site.submit(running)
    site.submit(queued)
    sim.run(until=1 * HOUR)
    assert running.state is JobState.RUNNING
    assert queued.state is JobState.PENDING

    def outage(sim):
        killed = site.mark_down()
        assert killed == 1
        with pytest.raises(I.SiteDownError):
            site.submit(job(sim))
        yield sim.timeout(6 * HOUR)
        site.mark_up()

    sim.process(outage(sim))
    sim.run(until=12 * HOUR)
    # The running job died to the outage; the queued one survived the
    # freeze (PBS-style) and started once the site came back.
    assert running.state is JobState.FAILED
    assert queued.state in (JobState.RUNNING, JobState.COMPLETED)
    assert queued.start_time is not None and queued.start_time >= 7 * HOUR


def test_mark_down_idempotent_and_wait_until_up():
    sim, site, _, _ = make_site()
    seen = []

    def watcher(sim):
        yield site.wait_until_up()   # already up: resolves immediately
        seen.append(("immediate", sim.now))
        yield sim.timeout(1.0)
        site.mark_down()
        assert site.mark_down() == 0  # second call is a no-op
        waiter = site.wait_until_up()
        yield sim.timeout(5.0)
        site.mark_up()
        site.mark_up()                # idempotent too
        yield waiter
        seen.append(("recovered", sim.now))

    sim.process(watcher(sim))
    sim.run(until=10.0)
    assert seen == [("immediate", 0.0), ("recovered", 6.0)]


def _outage(site, victim):
    site.mark_down()


def _cancel(site, victim):
    site.cancel(victim)


@pytest.mark.parametrize(
    "first_kill, final_state",
    [(_cancel, JobState.CANCELLED), (_outage, JobState.FAILED)],
)
def test_second_kill_in_the_same_instant_is_a_no_op(first_kill, final_state):
    sim, site, _, _ = make_site(nodes=4)
    ended = []
    charge = site.scheduler.on_job_end

    def on_job_end(j):
        ended.append(j)
        charge(j)

    site.scheduler.on_job_end = on_job_end
    victim = job(sim, cores=16, walltime=10 * HOUR)   # fills the machine
    site.submit(victim)
    sim.run(until=1 * HOUR)
    first_kill(site, victim)
    site.cancel(victim)            # lands after the first kill, same instant
    assert victim.state is JobState.RUNNING  # kills wait for the next step
    sim.run(until=2 * HOUR)
    assert victim.state is final_state
    assert victim.end_time == 1 * HOUR
    assert ended == [victim]
    assert site.scheduler.completed == [victim]
    assert site.scheduler.free_nodes == 4


@pytest.mark.parametrize(
    "kill, final_state",
    [(_cancel, JobState.CANCELLED), (_outage, JobState.FAILED)],
)
def test_kill_due_at_the_jobs_end_wins(kill, final_state):
    """A kill made at the instant the job's end timer is due runs first."""
    sim, site, _, _ = make_site(nodes=4)
    victim = job(sim, cores=16, walltime=10 * HOUR, runtime=5 * HOUR)

    def killer(sim):
        yield sim.timeout(6 * HOUR)
        kill(site, victim)

    sim.process(killer(sim))
    sim.run(until=1 * HOUR)        # the killer's timer is armed before the job's
    site.submit(victim)            # starts now, due to end at 6 h
    sim.run(until=12 * HOUR)
    assert victim.state is final_state
    assert victim.end_time == 6 * HOUR
    assert site.scheduler.completed == [victim]


# -- outage injector -------------------------------------------------------

def _run_injected(seed, until=60 * DAY):
    sim, site, central, _ = make_site(nodes=8)
    policy = OutagePolicy(site_mtbf=5 * DAY, partial_mtbf=5 * DAY)
    injector = SiteOutageInjector(
        sim, site, np.random.default_rng(seed), policy=policy
    )
    jobs = [job(sim, cores=4, walltime=12 * HOUR) for _ in range(60)]

    def feeder(sim):
        for j in jobs:
            try:
                site.submit(j)
            except I.SiteDownError:
                pass
            yield sim.timeout(6 * HOUR)

    sim.process(feeder(sim))
    sim.run(until=until)
    return injector, site, jobs


def test_injector_produces_both_outage_kinds():
    injector, site, jobs = _run_injected(3)
    kinds = {o.kind for o in injector.outages}
    assert kinds == {"full", "partial"}
    assert injector.jobs_killed > 0
    assert any(j.state is JobState.FAILED for j in jobs)
    # Ended outages recorded their repair window faithfully.
    for outage in injector.outages:
        if outage.end is not None:
            assert outage.end == pytest.approx(outage.start + outage.repair)
    assert site.up or injector.outages[-1].end is None


def test_outage_schedule_is_seed_stable():
    first, _, first_jobs = _run_injected(11)
    second, _, second_jobs = _run_injected(11)
    assert [(o.kind, o.start, o.repair) for o in first.outages] == [
        (o.kind, o.start, o.repair) for o in second.outages
    ]
    assert [j.state for j in first_jobs] == [j.state for j in second_jobs]
    different = _run_injected(12)[0]
    assert [(o.kind, o.start) for o in different.outages] != [
        (o.kind, o.start) for o in first.outages
    ]


def test_partial_outage_drains_slice_and_blocks_capacity():
    sim, site, _, _ = make_site(nodes=8)
    policy = OutagePolicy(
        site_mtbf=0.0,            # no full outages
        partial_mtbf=1 * HOUR,    # a rack failure promptly
        partial_fraction=0.5,
        repair_min=10 * HOUR, repair_median=12 * HOUR, repair_max=14 * HOUR,
    )
    injector = SiteOutageInjector(
        sim, site, np.random.default_rng(0), policy=policy
    )
    jobs = [job(sim, cores=4, walltime=20 * HOUR) for _ in range(8)]
    for j in jobs:
        site.submit(j)
    sim.run(until=8 * HOUR)
    (outage,) = injector.outages
    assert outage.kind == "partial" and outage.nodes == 4
    # The machine stayed up, but the failed slice is blocked: at most half
    # the nodes run jobs while the drain reservation is active.
    assert site.up
    assert outage.jobs_killed >= 1
    busy = sum(e.nodes for e in site.scheduler.running.values())
    assert busy <= 4
    assert site.available_nodes == 4


# -- gateway backlog -------------------------------------------------------

def test_gateway_queues_through_outage_and_drains_on_recovery():
    sim, site, central, _ = make_site(nodes=8)
    gateway = I.ScienceGateway(
        name="portal", community_user="gw", community_account="acct",
        rng=np.random.default_rng(1), sim=sim, max_backlog=2,
    )

    def clicks(sim):
        site.mark_down()
        statuses = []
        for _ in range(3):
            _job, status = gateway.request(
                site, "alice", cores=4, walltime=1 * HOUR, true_runtime=0.5 * HOUR
            )
            statuses.append(status)
        assert statuses == ["queued", "queued", "shed"]
        yield sim.timeout(4 * HOUR)
        site.mark_up()

    sim.process(clicks(sim))
    sim.run(until=10 * HOUR)
    site.feed.drain()
    assert gateway.requests_queued == 2
    assert gateway.requests_shed == 1
    assert gateway.backlog_submitted == 2
    assert not gateway.backlog
    # The two held requests became real accounted jobs after recovery.
    records = central.all_records()
    assert len(records) == 2
    assert all(r.user == "gw" for r in records)


def test_gateway_without_backlog_sheds_everything():
    sim, site, _, _ = make_site()
    gateway = I.ScienceGateway(
        name="portal", community_user="gw", community_account="acct",
        rng=np.random.default_rng(1),
    )
    site.mark_down()
    _job, status = gateway.request(
        site, "alice", cores=4, walltime=1 * HOUR, true_runtime=0.5 * HOUR
    )
    assert (_job, status) == (None, "shed")
    assert gateway.requests_shed == 1


# -- pilot re-provisioning -------------------------------------------------

def test_pilot_reprovisions_after_site_outage():
    sim, site, _, _ = make_site(nodes=8)
    manager = I.PilotManager(sim)
    pilot = manager.launch(
        site, user="u", account="acct", cores=16, walltime=40 * HOUR,
        reprovision=True,
    )
    tasks = [I.PilotTask(cores=4, runtime=30 * HOUR) for _ in range(2)]
    for task in tasks:
        pilot.submit_task(task)

    def outage(sim):
        yield sim.timeout(2 * HOUR)   # pilot active, tasks running
        site.mark_down()
        yield sim.timeout(3 * HOUR)
        site.mark_up()

    sim.process(outage(sim))
    sim.run(until=80 * HOUR)
    assert pilot.job.state is JobState.FAILED
    assert manager.pilots_lost == 1
    assert manager.pilots_reprovisioned == 1
    assert manager.tasks_rescued == 2
    assert pilot.replacement is not None
    # The rescued tasks ran to completion inside the successor pilot.
    assert all(task.done for task in tasks)


def test_pilot_without_reprovision_loses_tasks():
    sim, site, _, _ = make_site(nodes=8)
    manager = I.PilotManager(sim)
    pilot = manager.launch(
        site, user="u", account="acct", cores=16, walltime=40 * HOUR,
    )
    task = pilot.submit_task(I.PilotTask(cores=4, runtime=30 * HOUR))

    def outage(sim):
        yield sim.timeout(2 * HOUR)
        site.mark_down()
        yield sim.timeout(3 * HOUR)
        site.mark_up()

    sim.process(outage(sim))
    sim.run(until=80 * HOUR)
    assert pilot.job.state is JobState.FAILED
    assert manager.pilots_reprovisioned == 0
    assert not task.done and task in pilot.lost


# -- information service staleness ----------------------------------------

def test_info_service_lies_for_exactly_the_propagation_window():
    sim, site, _, _ = make_site()
    info = I.InformationService(
        sim, [site], publish_interval=5 * MINUTE,
        outage_propagation_lag=30 * MINUTE,
    )
    observations = []

    def world(sim):
        yield sim.timeout(12 * MINUTE)
        site.mark_down()
        # Inside the window every publication re-serves the pre-outage
        # snapshot; afterwards the truth lands at the next publish tick.
        for _ in range(12):
            yield sim.timeout(5 * MINUTE)
            observations.append(
                (sim.now - site.down_since, info.believed_up(site.name))
            )

    sim.process(world(sim))
    sim.run(until=2 * HOUR)
    for age, believed in observations:
        if age < 30 * MINUTE:
            assert believed, f"truth leaked {age / MINUTE:.0f}m into the window"
    assert not observations[-1][1], "outage never propagated"
    # The believed view flips exactly once, stale -> truthful.
    flips = sum(
        1 for prev, cur in zip(observations, observations[1:])
        if prev[1] != cur[1]
    )
    assert flips == 1

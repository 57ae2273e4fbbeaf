"""Tests for feeding and measuring one machine, and for trace replay."""

import pytest

from repro.infra.cluster import Cluster
from repro.infra.job import AttributeKeys, Job, JobState
from repro.infra.queues import default_queues
from repro.infra.scheduler import EasyBackfillScheduler, FcfsScheduler
from repro.infra.units import DAY, HOUR
from repro.sim import Simulator
from repro.users.population import PopulationSpec
from repro.workloads import (
    arrivals_from_records,
    replay,
    run_scenario,
)
from repro.workloads.replay import feed
from repro.workloads.synthetic import CampaignKey

#: the boosts of every site's queue set; only the queue names matter here
QUEUES = default_queues(Cluster("replay", nodes=64, cores_per_node=16))


@pytest.fixture(scope="module")
def source_records():
    result = run_scenario(days=6, seed=21, population=PopulationSpec(scale=0.02))
    return result.records


def test_arrivals_reconstruct_started_jobs(source_records):
    arrivals = arrivals_from_records(source_records, QUEUES)
    started = [r for r in source_records if r.ran]
    assert len(arrivals) == len(started)
    times = [when for when, _ in arrivals]
    assert times == sorted(times)
    for (when, job), record in zip(arrivals, sorted(
            started, key=lambda r: (r.submit_time, r.job_id))):
        assert when == record.submit_time
        assert job.cores == record.cores
        assert job.true_runtime == pytest.approx(max(record.elapsed, 1.0))
        assert job.priority == QUEUES.get(record.queue_name).priority_boost


def test_arrivals_core_clipping(source_records):
    arrivals = arrivals_from_records(source_records, QUEUES, max_cores=8)
    assert all(job.cores <= 8 for _when, job in arrivals)


def test_replay_runs_all_jobs(source_records):
    sim = Simulator()
    cluster = Cluster("replay", nodes=64, cores_per_node=16)
    scheduler = EasyBackfillScheduler(sim, cluster)
    arrivals = arrivals_from_records(
        source_records, default_queues(cluster), max_cores=cluster.total_cores
    )
    result = replay(sim, scheduler, arrivals)
    assert len(result.jobs) == len(arrivals)
    finished = [j for j in result.jobs if j.state.is_terminal]
    assert len(finished) == len(arrivals)  # horizon lets the queue drain
    assert 0 < result.utilization < 1
    assert result.median_wait() >= 0.0


def test_replay_policies_comparable_on_same_trace(source_records):
    arrivals_a = arrivals_from_records(source_records, QUEUES, max_cores=256)
    arrivals_b = arrivals_from_records(source_records, QUEUES, max_cores=256)

    def run_policy(policy, arrivals):
        sim = Simulator()
        cluster = Cluster("replay", nodes=16, cores_per_node=16)
        scheduler = policy(sim, cluster)
        return replay(sim, scheduler, arrivals)

    fcfs = run_policy(FcfsScheduler, arrivals_a)
    easy = run_policy(EasyBackfillScheduler, arrivals_b)
    # Same trace, same machine: EASY never does worse on median wait.
    assert easy.median_wait() <= fcfs.median_wait() + 1.0


def test_replay_empty_rejected():
    sim = Simulator()
    cluster = Cluster("replay", nodes=4, cores_per_node=4)
    scheduler = FcfsScheduler(sim, cluster)
    with pytest.raises(ValueError):
        replay(sim, scheduler, [])


def _job(job_id, cores=1, runtime=10.0):
    return Job(user="u", account="acct", cores=cores, walltime=2 * runtime,
               true_runtime=runtime, job_id=job_id)


def test_replay_empty_with_horizon_measures_an_idle_machine():
    """An empty arrival list needs no horizon to be inferred when one is given."""
    sim = Simulator()
    scheduler = FcfsScheduler(sim, Cluster("replay", nodes=4, cores_per_node=4))
    result = replay(sim, scheduler, [], horizon=HOUR)
    assert sim.now == HOUR
    assert result.finished == []
    assert result.utilization == 0.0


def test_feed_submits_in_stable_time_order():
    sim = Simulator()
    first, second, third, fourth = (_job(i) for i in range(1, 5))
    submitted = []
    feed(sim, lambda job: submitted.append((sim.now, job)),
         [(20.0, first), (10.0, second), (20.0, third), (0.0, fourth)])
    sim.run()
    assert submitted == [(0.0, fourth), (10.0, second), (20.0, first), (20.0, third)]


def test_finished_jobs_are_the_ones_that_ended_by_the_horizon():
    """Delivered node-seconds count whole nodes of the jobs that started and
    ended by the horizon; a job still running then counts for nothing."""
    sim = Simulator()
    cluster = Cluster("replay", nodes=4, cores_per_node=4)
    wide, long, short = _job(1, cores=5, runtime=50.0), _job(2, runtime=500.0), _job(3)
    result = replay(sim, FcfsScheduler(sim, cluster),
                    [(10.0, wide), (0.0, long), (30.0, short)], horizon=200.0)
    assert result.jobs == [wide, long, short]
    assert result.finished == [short, wide]  # completion order
    assert result.delivered_node_seconds == 2 * 50.0 + 1 * 10.0
    assert result.utilization == 110.0 / (4 * 200.0)


#: jobs each site started before its cut-off, per 15-day campaign seed
EXACT_STARTS = {
    1: {"ranger": 3622, "abe": 1874, "lonestar": 368},
    2: {"ranger": 1604, "abe": 776, "lonestar": 269},
}


@pytest.mark.parametrize("seed", sorted(EXACT_STARTS))
def test_campaign_records_replay_exactly(seed):
    """Each site's records of a 15-day campaign, replayed through EASY on the
    site's machine, start every job the site started before its cut-off at
    the identical time, and at the live job's priority.

    The cut-off is the earliest submission the records cannot reproduce: a
    job still queued or running at the horizon, which left no record, or a
    co-allocated job, whose reservation and start hold no record carries.
    Unrecorded jobs set seed 1's cut-offs; a co-allocation sets seed 2's.
    """
    result = run_scenario(CampaignKey.make(days=15, seed=seed).config())
    checked = {}
    for provider in result.providers:
        scheduler = provider.scheduler
        records = [r for r in result.records if r.resource == provider.name]
        unrecorded = [job.submit_time for job in scheduler.queue] + [
            entry.job.submit_time for entry in scheduler.running.values()
        ]
        coallocated = [
            r.submit_time for r in records
            if AttributeKeys.COALLOCATION_ID in r.attributes
        ]
        cutoff = min(unrecorded + coallocated)
        sim = Simulator()
        arrivals = arrivals_from_records(records, default_queues(provider.cluster))
        replay(sim, EasyBackfillScheduler(sim, provider.cluster), arrivals,
               horizon=result.config.horizon)
        live = {job.job_id: job for job in scheduler.completed}
        early = [job for _when, job in arrivals
                 if live[job.job_id].start_time < cutoff]
        assert [job.start_time for job in early] == [
            live[job.job_id].start_time for job in early
        ], provider.name
        assert [job.priority for _when, job in arrivals] == [
            live[job.job_id].priority for _when, job in arrivals
        ], provider.name
        checked[provider.name] = len(early)
    assert checked == EXACT_STARTS[seed]

"""Single-site studies: feed timed arrivals to one machine and measure it.

:func:`feed` submits arrivals at their times; :func:`replay` feeds one
scheduler, runs it to a horizon and counts the node-seconds it delivered.
Arrivals are synthetic (:func:`single_site_workload`, :func:`hero_arrivals`)
or rebuilt from usage records (:func:`arrivals_from_records`), simulated or
parsed from an SWF trace (:mod:`repro.workloads.swf`).  A rebuilt job runs
for its record's elapsed time, requests its record's walltime and takes its
queue's priority boost; a job that never ran is skipped, since its runtime
is unknown.

Replayed through the site's policy on the site's machine, a campaign site's
records start every job the site started before its *cut-off* at the
identical float time.  The cut-off is the earlier of the first submission
of a job that left no record (still queued or running at the horizon) and
the first co-allocated record (the co-allocator's reservation and start
hold are not recorded).  ``test_campaign_records_replay_exactly`` in
``tests/workloads/test_replay.py`` checks this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from repro.infra.accounting import UsageRecord
from repro.infra.cluster import Cluster
from repro.infra.job import Job, JobState
from repro.infra.queues import QueueSet
from repro.infra.scheduler.base import BatchScheduler
from repro.infra.units import DAY, HOUR, MINUTE, WEEK
from repro.sim import Simulator
from repro.sim.distributions import bounded_lognormal, log2_cores, uniform

__all__ = [
    "ReplayResult",
    "arrivals_from_records",
    "feed",
    "hero_arrivals",
    "replay",
    "single_site_workload",
]


def single_site_workload(
    sim: Simulator,
    rng,
    cluster: Cluster,
    days: float,
    load: float = 0.85,
    walltime_pad: tuple[float, float] = (1.1, 3.0),
    runtime_median: float = 2 * HOUR,
) -> list[tuple[float, Job]]:
    """A mixed batch workload offering ``load`` of the machine's capacity.

    Returns ``(submit_time, job)`` pairs for ``sim`` to run: Poisson
    arrivals of jobs whose mean demand (cores x runtime) matches the target
    offered load.
    ``walltime_pad`` bounds the users' over-request factor (larger pads make
    backfill planning more conservative).
    """
    jobs = []
    mean_runtime = 1.5 * runtime_median  # rough lognormal mean at sigma=1
    mean_cores = 2 ** 4.0 * np.exp(0.5 * (1.5 * np.log(2)) ** 2)  # lognormal mean
    mean_demand = mean_cores * mean_runtime
    rate = load * cluster.total_cores / mean_demand  # arrivals per second
    t = 0.0
    horizon = days * DAY
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        cores = log2_cores(rng, 1, cluster.total_cores, 4.0, 1.5)
        runtime = bounded_lognormal(
            rng, runtime_median, 1.0, 5 * MINUTE, 24 * HOUR
        )
        jobs.append(
            (
                t,
                Job(
                    user=f"u{int(rng.integers(40))}",
                    account="acct",
                    cores=cores,
                    walltime=runtime * uniform(rng, *walltime_pad),
                    true_runtime=runtime,
                    job_id=sim.next_id("job"),
                ),
            )
        )
    return jobs


def hero_arrivals(
    sim: Simulator, rng, cluster: Cluster, days: float, per_week: float = 2
) -> list[tuple[float, Job]]:
    """Full-machine "hero" runs arriving ``per_week`` times a week (Poisson).

    Returns ``(submit_time, job)`` pairs: jobs of user ``hero`` asking for
    every core of ``cluster`` for 4-10 hours (uniform), with 20% walltime
    padding and queue-jumping priority.
    """
    jobs = []
    horizon = days * DAY
    t = 0.0
    rate = per_week / WEEK
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        runtime = uniform(rng, 4 * HOUR, 10 * HOUR)
        jobs.append(
            (
                t,
                Job(
                    user="hero",
                    account="acct",
                    cores=cluster.total_cores,
                    walltime=runtime * 1.2,
                    true_runtime=runtime,
                    job_id=sim.next_id("job"),
                    # Capability runs are the mission: they jump the queue.
                    # Under plain EASY each arrival therefore forces its own
                    # opportunistic drain; a capability-window policy
                    # batches them.
                    priority=100.0,
                ),
            )
        )
    return jobs


def arrivals_from_records(
    records: Iterable[UsageRecord],
    queues: QueueSet,
    max_cores: Optional[int] = None,
) -> list[tuple[float, Job]]:
    """Rebuild ``(submit_time, job)`` pairs from usage records.

    Each job keeps its record's ``job_id`` and takes the priority boost of
    the record's queue in ``queues``, as the site gave it at submission.
    ``max_cores`` clips jobs to a smaller replay machine (a standard trick
    when replaying a big machine's trace on a scaled-down model); jobs are
    clipped, not dropped, to preserve the arrival process.
    """
    arrivals: list[tuple[float, Job]] = []
    for record in sorted(records, key=lambda r: (r.submit_time, r.job_id)):
        if not record.ran:
            continue
        cores = record.cores if max_cores is None else min(record.cores, max_cores)
        runtime = max(record.elapsed, 1.0)
        walltime = max(record.requested_walltime, runtime)
        arrivals.append(
            (
                record.submit_time,
                Job(
                    user=record.user,
                    account=record.account,
                    cores=cores,
                    walltime=walltime,
                    true_runtime=runtime,
                    job_id=record.job_id,
                    will_fail=record.final_state is JobState.FAILED,
                    priority=queues.get(record.queue_name).priority_boost,
                    attributes=dict(record.attributes),
                ),
            )
        )
    return arrivals


def feed(
    sim: Simulator,
    submit: Callable[[Job], object],
    arrivals: list[tuple[float, Job]],
) -> None:
    """Call ``submit(job)`` at each arrival's time, in stable time order.

    One process, named ``feeder``, does the submitting; ``submit`` may be a
    scheduler's, a site's or a metascheduler's.
    """

    def feeder(sim):
        clock = sim.now
        for when, job in sorted(arrivals, key=lambda pair: pair[0]):
            if when > clock:
                yield sim.timeout(when - clock)
                clock = when
            submit(job)

    sim.process(feeder(sim), name="feeder")


@dataclass
class ReplayResult:
    """Outcome of one replay run."""

    #: every arrival's job, in the order given
    jobs: list[Job]
    #: the jobs that started and ended by the horizon, in completion order
    finished: list[Job]
    horizon: float
    delivered_node_seconds: float
    total_nodes: int

    @property
    def utilization(self) -> float:
        if self.horizon <= 0 or self.total_nodes == 0:
            return 0.0
        return self.delivered_node_seconds / (self.total_nodes * self.horizon)

    def median_wait(self) -> float:
        waits = sorted(
            j.wait_time for j in self.jobs if j.wait_time is not None
        )
        if not waits:
            return 0.0
        return waits[len(waits) // 2]


def replay(
    sim: Simulator,
    scheduler: BatchScheduler,
    arrivals: list[tuple[float, Job]],
    horizon: Optional[float] = None,
) -> ReplayResult:
    """Feed ``arrivals`` to ``scheduler``, run to ``horizon`` and measure.

    With ``horizon=None`` the run extends a week past the last arrival so
    the queue can drain; that needs at least one arrival.
    """
    if horizon is None:
        if not arrivals:
            raise ValueError("nothing to replay: no arrivals and no horizon")
        horizon = max(when for when, _job in arrivals) + 7 * DAY
    feed(sim, scheduler.submit, arrivals)
    sim.run(until=horizon)
    cluster = scheduler.cluster
    finished = [job for job in scheduler.completed if job.start_time is not None]
    return ReplayResult(
        jobs=[job for _when, job in arrivals],
        finished=finished,
        horizon=horizon,
        delivered_node_seconds=sum(
            cluster.nodes_for(job.cores) * (job.end_time - job.start_time)
            for job in finished
        ),
        total_nodes=cluster.nodes,
    )

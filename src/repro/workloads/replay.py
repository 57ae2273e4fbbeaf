"""Trace replay: drive a scheduler from recorded workloads.

The complement of :mod:`repro.workloads.swf`: reconstruct jobs from usage
records (simulated or parsed from an archived SWF trace) and re-submit them
against any scheduler policy.  This is how policy studies are run on *real*
workloads — e.g. replaying a Parallel Workloads Archive trace under both
FCFS and EASY instead of trusting the synthetic generator.

Replayed runtimes are the recorded elapsed times; walltimes are the recorded
requests; jobs that never ran in the source trace (cancelled while pending)
are skipped, since their runtimes are unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.infra.accounting import UsageRecord
from repro.infra.job import Job, JobState
from repro.infra.scheduler.base import BatchScheduler
from repro.sim import Simulator

__all__ = ["ReplayResult", "arrivals_from_records", "replay"]


def arrivals_from_records(
    records: Iterable[UsageRecord],
    max_cores: Optional[int] = None,
) -> list[tuple[float, Job]]:
    """Rebuild ``(submit_time, job)`` pairs from usage records.

    ``max_cores`` clips jobs to a smaller replay machine (a standard trick
    when replaying a big machine's trace on a scaled-down model); jobs are
    clipped, not dropped, to preserve the arrival process.  Each job keeps
    its record's ``job_id``.
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
                    attributes=dict(record.attributes),
                ),
            )
        )
    return arrivals


@dataclass
class ReplayResult:
    """Outcome of one replay run."""

    jobs: list[Job] = field(default_factory=list)
    horizon: float = 0.0
    delivered_node_seconds: float = 0.0
    total_nodes: int = 0

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
    """Submit ``arrivals`` at their recorded times and run to ``horizon``.

    With ``horizon=None`` the run extends a week past the last arrival so
    the queue can drain.
    """
    if not arrivals:
        raise ValueError("nothing to replay")
    last_arrival = max(when for when, _job in arrivals)
    end = horizon if horizon is not None else last_arrival + 7 * 86400.0

    def feeder(sim):
        clock = sim.now
        for when, job in sorted(arrivals, key=lambda p: p[0]):
            if when > clock:
                yield sim.timeout(when - clock)
                clock = when
            scheduler.submit(job)

    sim.process(feeder(sim), name="replay-feeder")
    sim.run(until=end)
    jobs = [job for _when, job in arrivals]
    delivered = sum(
        scheduler.cluster.nodes_for(j.cores)
        * (min(j.end_time, end) - j.start_time)
        for j in jobs
        if j.start_time is not None and j.end_time is not None
    )
    return ReplayResult(
        jobs=jobs,
        horizon=end,
        delivered_node_seconds=delivered,
        total_nodes=scheduler.cluster.nodes,
    )

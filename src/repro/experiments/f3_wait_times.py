"""F3 — Queue wait by job-size class under FCFS vs EASY backfill.

Shape expectation: EASY cuts small-job waits by a large factor at equal
offered load while leaving large-job waits roughly unchanged, and raises
delivered utilization — the classic backfilling result that motivated every
TeraGrid site to run it.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import ascii_table
from repro.experiments.base import ExperimentOutput, register
from repro.infra.cluster import Cluster
from repro.infra.job import Job
from repro.infra.scheduler import EasyBackfillScheduler, FcfsScheduler
from repro.infra.units import DAY, HOUR, MINUTE
from repro.sim import RandomStreams, Simulator
from repro.sim.distributions import bounded_lognormal, log2_cores

__all__ = ["run", "single_site_workload"]


def single_site_workload(
    sim: Simulator,
    rng,
    cluster: Cluster,
    days: float,
    load: float = 0.85,
    walltime_pad: tuple[float, float] = (1.1, 3.0),
    runtime_median: float = 2 * HOUR,
):
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
                    walltime=runtime * float(rng.uniform(*walltime_pad)),
                    true_runtime=runtime,
                    job_id=sim.next_id("job"),
                ),
            )
        )
    return jobs


def _feeder(sim, scheduler, arrivals):
    last = 0.0
    for when, job in arrivals:
        if when > last:
            yield sim.timeout(when - last)
            last = when
        scheduler.submit(job)


def _run_policy(policy, arrivals_factory, days, nodes=64, cores_per_node=8):
    sim = Simulator()
    cluster = Cluster("mach", nodes=nodes, cores_per_node=cores_per_node)
    scheduler = policy(sim, cluster)
    arrivals = arrivals_factory(sim, cluster)
    sim.process(_feeder(sim, scheduler, arrivals), name="feeder")
    horizon = days * DAY
    sim.run(until=horizon)
    finished = [j for j in scheduler.completed if j.start_time is not None]
    delivered = sum(
        cluster.nodes_for(j.cores)
        * (min(j.end_time, horizon) - j.start_time)
        for j in finished
    )
    utilization = delivered / (cluster.nodes * horizon)
    return finished, utilization


@register("F3")
def run(days: float = 21.0, seed: int = 5, load: float = 0.85) -> ExperimentOutput:
    def arrivals_factory(sim, cluster):
        rng = RandomStreams(seed).stream("f3-workload")
        return single_site_workload(sim, rng, cluster, days, load=load)

    classes = [("small (<=8 cores)", 1, 8), ("medium (9-64)", 9, 64),
               ("large (>64)", 65, 10**9)]
    rows = []
    data = {}
    utilizations = {}
    results = {}
    for policy, label in ((FcfsScheduler, "FCFS"), (EasyBackfillScheduler, "EASY")):
        finished, utilization = _run_policy(policy, arrivals_factory, days)
        utilizations[label] = utilization
        results[label] = finished
    for class_label, lo, hi in classes:
        row = [class_label]
        for label in ("FCFS", "EASY"):
            waits = [
                j.wait_time / HOUR
                for j in results[label]
                if lo <= j.cores <= hi
            ]
            median = float(np.median(waits)) if waits else 0.0
            p90 = float(np.percentile(waits, 90)) if waits else 0.0
            row.append(f"{median:.2f}h / {p90:.2f}h")
            data.setdefault(label, {})[class_label] = {
                "median_h": median,
                "p90_h": p90,
                "n": len(waits),
            }
        rows.append(row)
    rows.append(
        [
            "utilization",
            f"{100 * utilizations['FCFS']:.1f}%",
            f"{100 * utilizations['EASY']:.1f}%",
        ]
    )
    text = ascii_table(
        ["size class", "FCFS wait p50/p90", "EASY wait p50/p90"],
        rows,
        title=(
            f"F3 — Wait times by size class, FCFS vs EASY "
            f"({days:g} days at offered load {load:.0%})"
        ),
    )
    data["utilization"] = utilizations
    return ExperimentOutput(
        experiment_id="F3",
        title="Queue wait by size class under FCFS vs EASY",
        text=text,
        data=data,
    )

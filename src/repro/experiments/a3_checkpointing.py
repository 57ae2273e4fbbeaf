"""A3 (ablation) — Wasted computation vs node MTBF, with/without checkpoints.

Fault tolerance was a live TeraGrid-era concern (petascale machines lose
nodes continuously).  This ablation submits long jobs against a fault
injector and resubmits each victim until its work completes, under two
recovery disciplines:

* *restart* — a struck job loses everything and restarts from scratch;
* *checkpoint* — progress is saved every ``checkpoint_interval``; only the
  tail since the last checkpoint is lost (plus a small restart overhead).

Shape expectation: the waste ratio (machine time consumed beyond the useful
work) explodes as MTBF shrinks under restart — long jobs can fail repeatedly
near completion — while checkpointing caps the loss per failure at one
interval, keeping waste roughly linear in the failure rate.
"""

from __future__ import annotations

import repro.infra as infra
from repro.core.report import ascii_table, counters_footer
from repro.infra.resilience import saved_progress
from repro.experiments.base import (
    ExperimentOutput,
    ExperimentTask,
    register_tasks,
)
from repro.infra.job import Job, JobState
from repro.infra.units import DAY, HOUR
from repro.sim import RandomStreams, Simulator

__all__ = ["plan", "execute", "merge"]

_SEED = 31
_MTBFS_HOURS = (250.0, 1000.0, 4000.0)
_CHECKPOINT_INTERVAL = 1 * HOUR


def _run_campaign(
    node_mtbf: float,
    checkpoint_interval: float | None,
    seed: int,
    n_jobs: int = 24,
    work_hours: float = 20.0,
    cores: int = 32,
) -> dict:
    """Run ``n_jobs`` long jobs to completion under failures; measure waste."""
    sim = Simulator()
    ledger = infra.AllocationLedger()
    ledger.create("acct", infra.AllocationType.RESEARCH, 1e12, users={"u"})
    central = infra.CentralAccountingDB()
    cluster = infra.Cluster("mach", nodes=128, cores_per_node=8)
    site = infra.ResourceProvider(sim, cluster, ledger, central)
    streams = RandomStreams(seed)
    injector = infra.NodeFailureInjector(
        sim,
        site.scheduler,
        streams.stream("faults"),
        node_mtbf=node_mtbf,
        tick=0.05 * HOUR,
    )

    consumed = [0.0]
    resubmissions = [0]
    restart_overhead = 5 * 60.0  # re-queue + restore time

    def campaign(sim, rng):
        work = work_hours * HOUR
        remaining = work
        while remaining > 1.0:
            job = Job(
                user="u",
                account="acct",
                cores=cores,
                walltime=remaining * 1.2 + restart_overhead,
                true_runtime=remaining,
                job_id=sim.next_id("job"),
            )
            site.submit(job)
            yield site.scheduler.wait_for(job)
            elapsed = job.elapsed or 0.0
            consumed[0] += elapsed * cores
            if job.state is JobState.COMPLETED:
                remaining = 0.0
            else:
                # Struck by a node failure partway through.
                saved = saved_progress(elapsed, checkpoint_interval)
                remaining = max(remaining - saved, 0.0)
                if remaining > 1.0:
                    resubmissions[0] += 1
                    yield sim.timeout(restart_overhead)

    rng_master = streams.stream("campaign")
    for i in range(n_jobs):
        sim.process(campaign(sim, rng_master), name=f"campaign-{i}")
    sim.run(until=90 * DAY)

    useful = n_jobs * work_hours * HOUR * cores
    return {
        "consumed_core_seconds": consumed[0],
        "useful_core_seconds": useful,
        "waste_ratio": max(consumed[0] / useful - 1.0, 0.0),
        "records": len(central) + site.feed.buffered,
        "failures": injector.failures_injected,
        "resubmissions": resubmissions[0],
    }


def plan(
    seed: int = _SEED,
    mtbfs_hours: tuple[float, ...] = _MTBFS_HOURS,
    checkpoint_interval: float = _CHECKPOINT_INTERVAL,
) -> list[ExperimentTask]:
    # Each (MTBF, recovery discipline) pair is an independent simulation:
    # restart then checkpoint, in MTBF order, so merge can pair them back.
    tasks = []
    for mtbf_h in mtbfs_hours:
        for interval in (None, checkpoint_interval):
            tasks.append(
                ExperimentTask(
                    experiment_id="A3",
                    index=len(tasks),
                    params={
                        "mtbf_hours": float(mtbf_h),
                        "checkpoint_interval": interval,
                        "seed": int(seed),
                    },
                    seed=int(seed),
                )
            )
    return tasks


def execute(mtbf_hours: float, checkpoint_interval: float | None, seed: int) -> dict:
    return _run_campaign(mtbf_hours * HOUR, checkpoint_interval, seed)


def merge(
    partials: list[dict],
    seed: int = _SEED,
    mtbfs_hours: tuple[float, ...] = _MTBFS_HOURS,
    checkpoint_interval: float = _CHECKPOINT_INTERVAL,
) -> ExperimentOutput:
    rows = []
    data = {}
    pairs = iter(partials)
    for mtbf_h, (restart, checkpointed) in zip(mtbfs_hours, zip(pairs, pairs)):
        rows.append(
            [
                f"{mtbf_h:g}h",
                f"{100 * restart['waste_ratio']:.1f}%",
                f"{100 * checkpointed['waste_ratio']:.1f}%",
            ]
        )
        data[mtbf_h] = {"restart": restart, "checkpoint": checkpointed}
    table = ascii_table(
        ["per-node MTBF", "waste (restart from scratch)",
         f"waste (checkpoint every {checkpoint_interval / HOUR:g}h)"],
        rows,
        title=(
            "A3 — Wasted computation vs node MTBF "
            "(24 x 20h 32-core campaigns run to completion)"
        ),
    )
    footer = counters_footer(
        {
            "failures": sum(p["failures"] for p in partials),
            "resubmissions": sum(p["resubmissions"] for p in partials),
        }
    )
    text = "\n".join([table, footer])
    return ExperimentOutput(
        experiment_id="A3",
        title="Checkpointing ablation under node failures",
        text=text,
        data=data,
    )


register_tasks("A3", plan=plan, execute=execute, merge=merge)

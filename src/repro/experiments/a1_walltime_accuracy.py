"""A1 (ablation) — EASY backfill vs walltime request accuracy.

Backfill plans with *requested* walltimes, so one might expect looser
requests to hurt.  The literature says otherwise: Mu'alem & Feitelson (TPDS
2001) showed that *over*-estimated walltimes often **help** backfilling —
inflated bounds push the head's shadow later, opening more backfill windows
for waiting jobs ("the walltime-accuracy paradox").  Shape expectation here:
utilization stays flat while small-job waits *shrink* as the over-request
factor grows — the paradox, reproduced.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import ascii_table
from repro.experiments.base import ExperimentOutput, register
from repro.infra.cluster import Cluster
from repro.infra.scheduler import EasyBackfillScheduler
from repro.infra.units import DAY, HOUR
from repro.sim import RandomStreams, Simulator
from repro.workloads.replay import replay, single_site_workload

__all__ = ["run"]


def _measure(pad: tuple[float, float], days: float, seed: int, load: float):
    sim = Simulator()
    cluster = Cluster("mach", nodes=64, cores_per_node=8)
    scheduler = EasyBackfillScheduler(sim, cluster)
    rng = RandomStreams(seed).stream("a1-workload")
    arrivals = single_site_workload(
        sim, rng, cluster, days, load=load, walltime_pad=pad
    )
    result = replay(sim, scheduler, arrivals, horizon=days * DAY)
    small_waits = [
        j.wait_time / HOUR for j in result.finished if j.cores <= 8
    ]
    return {
        "utilization": result.utilization,
        "small_median_wait_h": float(np.median(small_waits)) if small_waits else 0.0,
        "n_finished": len(result.finished),
    }


@register("A1")
def run(days: float = 14.0, seed: int = 19, load: float = 0.85) -> ExperimentOutput:
    pads = [(1.0, 1.05), (1.5, 2.0), (3.0, 4.0), (6.0, 8.0)]
    rows = []
    data = {}
    for pad in pads:
        outcome = _measure(pad, days, seed, load)
        label = f"{pad[0]:.1f}-{pad[1]:.1f}x"
        rows.append(
            [
                label,
                f"{100 * outcome['utilization']:.1f}%",
                f"{outcome['small_median_wait_h']:.2f}h",
                outcome["n_finished"],
            ]
        )
        data[label] = outcome
    text = ascii_table(
        ["walltime over-request", "utilization", "small-job median wait",
         "jobs finished"],
        rows,
        title=(
            f"A1 — EASY backfill vs walltime request accuracy "
            f"({days:g} days at load {load:.0%})"
        ),
    )
    return ExperimentOutput(
        experiment_id="A1",
        title="Walltime-accuracy ablation for EASY backfill",
        text=text,
        data=data,
    )

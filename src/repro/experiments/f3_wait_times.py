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
from repro.infra.scheduler import EasyBackfillScheduler, FcfsScheduler
from repro.infra.units import DAY, HOUR
from repro.sim import RandomStreams, Simulator
from repro.workloads.replay import replay, single_site_workload

__all__ = ["run"]


@register("F3")
def run(days: float = 21.0, seed: int = 5, load: float = 0.85) -> ExperimentOutput:
    classes = [("small (<=8 cores)", 1, 8), ("medium (9-64)", 9, 64),
               ("large (>64)", 65, 10**9)]
    rows = []
    data = {}
    utilizations = {}
    results = {}
    for policy, label in ((FcfsScheduler, "FCFS"), (EasyBackfillScheduler, "EASY")):
        sim = Simulator()
        cluster = Cluster("mach", nodes=64, cores_per_node=8)
        scheduler = policy(sim, cluster)
        rng = RandomStreams(seed).stream("f3-workload")
        arrivals = single_site_workload(sim, rng, cluster, days, load=load)
        result = replay(sim, scheduler, arrivals, horizon=days * DAY)
        utilizations[label] = result.utilization
        results[label] = result.finished
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

"""A2 (ablation) — Reactive vs sticky shadow reservations.

The F4 capability comparison rests on one mechanism: whether the head's
reservation moves earlier when jobs complete ahead of their walltime bounds.
This ablation isolates it on a plain workload (no heroes): sticky
reservations idle the machine between the actual drain and the bound-based
reserved start.  Shape expectation: reactive EASY dominates sticky EASY on
both utilization and waits, with the gap growing as walltime requests get
looser.
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


def _measure(sticky: bool, pad: tuple[float, float], days: float, seed: int,
             load: float):
    sim = Simulator()
    cluster = Cluster("mach", nodes=48, cores_per_node=8)
    scheduler = EasyBackfillScheduler(sim, cluster, sticky_shadow=sticky)
    rng = RandomStreams(seed).stream("a2-workload")
    arrivals = single_site_workload(
        sim, rng, cluster, days, load=load, walltime_pad=pad,
        runtime_median=3 * HOUR,
    )
    result = replay(sim, scheduler, arrivals, horizon=days * DAY)
    # Wait statistics only over jobs submitted in the first half of the
    # horizon: under a growing backlog (sticky mode), late submissions are
    # right-censored and would bias the comparison.
    early = [j for j in result.finished if j.submit_time <= result.horizon / 2]
    waits = [j.wait_time / HOUR for j in early]
    return {
        "utilization": result.utilization,
        "median_wait_h": float(np.median(waits)) if waits else 0.0,
        "n_finished": len(result.finished),
    }


@register("A2")
def run(days: float = 14.0, seed: int = 29, load: float = 0.9) -> ExperimentOutput:
    rows = []
    data = {}
    for pad in [(1.5, 2.0), (3.0, 5.0)]:
        label = f"{pad[0]:.1f}-{pad[1]:.1f}x"
        reactive = _measure(False, pad, days, seed, load)
        sticky = _measure(True, pad, days, seed, load)
        rows.append(
            [
                label,
                f"{100 * reactive['utilization']:.1f}%",
                f"{100 * sticky['utilization']:.1f}%",
                f"{reactive['median_wait_h']:.2f}h",
                f"{sticky['median_wait_h']:.2f}h",
                f"{reactive['n_finished']}/{sticky['n_finished']}",
            ]
        )
        data[label] = {"reactive": reactive, "sticky": sticky}
    text = ascii_table(
        ["walltime pad", "util (reactive)", "util (sticky)",
         "median wait (reactive)", "median wait (sticky)",
         "jobs finished (R/S)"],
        rows,
        title=(
            f"A2 — Reactive vs sticky shadow reservations "
            f"({days:g} days at load {load:.0%})"
        ),
    )
    return ExperimentOutput(
        experiment_id="A2",
        title="Reservation-style ablation (reactive vs sticky shadows)",
        text=text,
        data=data,
    )

#!/usr/bin/env python
"""Capability scheduling policies on a Kraken-like machine.

Full-machine "hero" runs and high total utilization pull a scheduler in
opposite directions.  This example runs the same workload — background batch
jobs plus prioritized full-machine heroes — under three policies and prints
the trade-off:

* plain EASY backfill (reactive shadow reservations),
* EASY with *sticky* reservations (Moab-era fixed start times), and
* the weekly-drain capability windows NICS ran on Kraken.

Run:  python examples/capability_scheduling.py
"""

import numpy as np

from repro.core.report import ascii_table
from repro.infra.cluster import Cluster
from repro.infra.scheduler import EasyBackfillScheduler, WeeklyDrainScheduler
from repro.infra.units import DAY, HOUR, WEEK
from repro.sim import RandomStreams, Simulator
from repro.workloads.replay import hero_arrivals, replay, single_site_workload


def run_policy(label, factory, days=28.0, load=0.65, heroes_per_week=4):
    sim = Simulator()
    cluster = Cluster("kraken-like", nodes=48, cores_per_node=8)
    scheduler = factory(sim, cluster)
    streams = RandomStreams(23)
    background = single_site_workload(
        sim, streams.stream("bg"), cluster, days, load=load,
        walltime_pad=(2.0, 5.0), runtime_median=4 * HOUR,
    )
    heroes = hero_arrivals(
        sim, streams.stream("heroes"), cluster, days, per_week=heroes_per_week
    )
    result = replay(sim, scheduler, background + heroes, horizon=days * DAY)
    hero_waits = [j.wait_time / HOUR for j in result.finished if j.user == "hero"]
    return [
        label,
        f"{100 * result.utilization:.1f}%",
        f"{np.median(hero_waits):.0f}h" if hero_waits else "-",
        len(hero_waits),
    ]


def main() -> None:
    print(__doc__)
    rows = [
        run_policy("EASY (reactive)", EasyBackfillScheduler),
        run_policy(
            "EASY (sticky reservations)",
            lambda sim, cluster: EasyBackfillScheduler(
                sim, cluster, sticky_shadow=True
            ),
        ),
        run_policy(
            "weekly drain windows",
            lambda sim, cluster: WeeklyDrainScheduler(
                sim,
                cluster,
                capability_fraction=0.9,
                window=2 * DAY,
                period=WEEK,
                first_window=3 * DAY,
            ),
        ),
    ]
    print(
        ascii_table(
            ["policy", "utilization", "hero median wait", "heroes completed"],
            rows,
            title="28 days, 65% background load, 4 full-machine heroes/week",
        )
    )


if __name__ == "__main__":
    main()

"""F4 — Capability scheduling: plain EASY vs weekly-drain windows.

Shape expectation (Hazlewood et al., reproduced here): with full-machine
"hero" jobs in the mix, plain EASY loses utilization to opportunistic drains
every time a hero reaches the head of the queue, while the weekly-drain
policy confines that loss to scheduled windows — higher utilization at
bounded hero wait.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import ascii_table
from repro.experiments.base import ExperimentOutput, register
from repro.infra.cluster import Cluster
from repro.infra.scheduler import EasyBackfillScheduler, WeeklyDrainScheduler
from repro.infra.units import DAY, HOUR, WEEK
from repro.sim import RandomStreams, Simulator
from repro.workloads.replay import hero_arrivals, replay, single_site_workload

__all__ = ["run"]


def _run(policy_factory, days, seed, load, per_week):
    sim = Simulator()
    cluster = Cluster("kraken-like", nodes=64, cores_per_node=8)
    scheduler = policy_factory(sim, cluster)
    streams = RandomStreams(seed)
    # Conservative walltime over-requests and longer jobs make opportunistic
    # drains expensive, the regime the weekly policy was designed for.
    background = single_site_workload(
        sim,
        streams.stream("f4-background"),
        cluster,
        days,
        load=load,
        walltime_pad=(2.0, 5.0),
        runtime_median=4 * HOUR,
    )
    heroes = hero_arrivals(
        sim, streams.stream("f4-heroes"), cluster, days, per_week=per_week
    )
    result = replay(sim, scheduler, background + heroes, horizon=days * DAY)
    hero_waits = [
        j.wait_time / HOUR for j in result.finished if j.user == "hero"
    ]
    background_waits = [
        j.wait_time / HOUR for j in result.finished if j.user != "hero"
    ]
    heroes_run = len(hero_waits)
    return {
        "utilization": result.utilization,
        "hero_median_wait_h": float(np.median(hero_waits)) if hero_waits else float("nan"),
        "background_median_wait_h": (
            float(np.median(background_waits)) if background_waits else float("nan")
        ),
        "heroes_run": heroes_run,
        "heroes_submitted": len(heroes),
    }


@register("F4")
def run(
    days: float = 56.0,
    seed: int = 11,
    load: float = 0.65,
    hero_rates: tuple[int, ...] = (1, 2, 4, 6),
) -> ExperimentOutput:
    """Sweep hero demand; report both policies and locate the crossover.

    The "traditional" arm is production-faithful: heroes carry priority and
    receive *fixed* (sticky) advance reservations, the Moab-era behavior
    whose bound-based idle gaps motivated the weekly drain.  The drain
    window scales with demand (as NICS sized theirs to their hero queue).
    """
    rows = []
    data = {}
    crossover = None
    for per_week in hero_rates:
        window_days = 1 if per_week <= 2 else 2
        easy = _run(
            lambda sim, cluster: EasyBackfillScheduler(
                sim, cluster, sticky_shadow=True
            ),
            days,
            seed,
            load,
            per_week,
        )
        drain = _run(
            lambda sim, cluster, w=window_days: WeeklyDrainScheduler(
                sim,
                cluster,
                capability_fraction=0.9,
                window=w * DAY,
                period=WEEK,
                first_window=3 * DAY,
            ),
            days,
            seed,
            load,
            per_week,
        )
        if crossover is None and drain["utilization"] > easy["utilization"]:
            crossover = per_week
        rows.append(
            [
                per_week,
                f"{100 * easy['utilization']:.1f}%",
                f"{100 * drain['utilization']:.1f}%",
                f"{easy['hero_median_wait_h']:.0f}h",
                f"{drain['hero_median_wait_h']:.0f}h",
                f"{easy['heroes_run']}/{drain['heroes_run']}",
            ]
        )
        data[per_week] = {"easy": easy, "drain": drain}
    text = ascii_table(
        [
            "heroes/week",
            "util (priority EASY)",
            "util (weekly drain)",
            "hero wait (EASY)",
            "hero wait (drain)",
            "heroes run (E/D)",
        ],
        rows,
        title=(
            f"F4 — Capability policies vs hero demand over {days:g} days "
            f"({load:.0%} background; drain wins utilization from "
            f"{crossover if crossover else '>max tested'} heroes/week)"
        ),
    )
    data["crossover_per_week"] = crossover
    return ExperimentOutput(
        experiment_id="F4",
        title="Utilization under capability policies",
        text=text,
        data=data,
    )

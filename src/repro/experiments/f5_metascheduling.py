"""F5 — Resource-selection strategies vs information staleness.

Shape expectation (the TeraGrid resource-selection-tools result): informed
strategies beat RANDOM/ROUND_ROBIN on time-to-start; PREDICTED_START (a
fresh scheduler probe) beats LEAST_LOADED; and LEAST_LOADED degrades toward
the uninformed strategies as the information service's publication interval
grows (herding on stale snapshots).
"""

from __future__ import annotations

import numpy as np

import repro.infra as infra
from repro.core.report import ascii_table
from repro.experiments.base import ExperimentOutput, register
from repro.infra.job import Job
from repro.infra.metascheduler import SelectionStrategy
from repro.infra.units import DAY, HOUR, MINUTE
from repro.sim import RandomStreams, Simulator
from repro.sim.distributions import bounded_lognormal, log2_cores
from repro.workloads.replay import feed

__all__ = ["run"]


def _build_federation(sim, publish_interval):
    ledger = infra.AllocationLedger()
    ledger.create("acct", infra.AllocationType.RESEARCH, 1e12, users={"u"})
    central = infra.CentralAccountingDB()
    providers = [
        infra.ResourceProvider(
            sim,
            infra.Cluster(name, nodes=nodes, cores_per_node=8),
            ledger,
            central,
        )
        for name, nodes in [("alpha", 48), ("beta", 32), ("gamma", 16)]
    ]
    info = infra.InformationService(
        sim, providers, publish_interval=publish_interval
    )
    return providers, info


def _arrivals(sim, rng, total_cores, days, load):
    """Poisson arrivals of small, short jobs offering ``load`` of
    ``total_cores``: each draws its gap, then its cores, then its runtime."""
    mean_demand = (2 ** 3.5) * (2 * HOUR)
    rate = load * total_cores / mean_demand
    horizon = days * DAY
    arrivals = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            return arrivals
        cores = log2_cores(rng, 1, 128, 3.0, 1.2)
        runtime = bounded_lognormal(rng, 90 * MINUTE, 1.0, 5 * MINUTE, 12 * HOUR)
        arrivals.append(
            (
                t,
                Job(
                    user="u",
                    account="acct",
                    cores=cores,
                    walltime=runtime * 1.5,
                    true_runtime=runtime,
                    job_id=sim.next_id("job"),
                ),
            )
        )


def _measure(strategy, publish_interval, days, seed, load):
    sim = Simulator()
    providers, info = _build_federation(sim, publish_interval)
    streams = RandomStreams(seed)
    meta = infra.Metascheduler(
        providers,
        strategy,
        rng=streams.stream("selection"),
        info_service=info,
    )
    total_cores = sum(p.cluster.total_cores for p in providers)
    arrivals = _arrivals(sim, streams.stream("workload"), total_cores, days, load)
    feed(sim, meta.submit, arrivals)
    sim.run(until=days * DAY)
    waits = [
        j.wait_time / MINUTE for _when, j in arrivals if j.start_time is not None
    ]
    return {
        "mean_wait_min": float(np.mean(waits)) if waits else float("nan"),
        "p90_wait_min": float(np.percentile(waits, 90)) if waits else float("nan"),
        "n_started": len(waits),
        "n_submitted": len(arrivals),
    }


@register("F5")
def run(days: float = 10.0, seed: int = 3, load: float = 0.8) -> ExperimentOutput:
    strategies = [
        SelectionStrategy.RANDOM,
        SelectionStrategy.ROUND_ROBIN,
        SelectionStrategy.LEAST_LOADED,
        SelectionStrategy.PREDICTED_START,
    ]
    staleness_level = 5 * MINUTE
    rows = []
    data: dict = {"strategies": {}, "staleness": {}}
    for strategy in strategies:
        outcome = _measure(strategy, staleness_level, days, seed, load)
        rows.append(
            [
                strategy.value,
                f"{outcome['mean_wait_min']:.1f} min",
                f"{outcome['p90_wait_min']:.1f} min",
            ]
        )
        data["strategies"][strategy.value] = outcome
    table_a = ascii_table(
        ["strategy", "mean time-to-start", "p90"],
        rows,
        title=(
            f"F5a — Resource selection strategies ({days:g} days, "
            f"load {load:.0%}, info published every 5 min)"
        ),
    )

    rows_b = []
    for interval in (1 * MINUTE, 15 * MINUTE, 1 * HOUR, 6 * HOUR):
        outcome = _measure(
            SelectionStrategy.LEAST_LOADED, interval, days, seed, load
        )
        rows_b.append(
            [
                f"{interval / MINUTE:.0f} min",
                f"{outcome['mean_wait_min']:.1f} min",
                f"{outcome['p90_wait_min']:.1f} min",
            ]
        )
        data["staleness"][interval] = outcome
    table_b = ascii_table(
        ["publish interval", "mean time-to-start", "p90"],
        rows_b,
        title="F5b — LEAST_LOADED vs information staleness",
    )
    return ExperimentOutput(
        experiment_id="F5",
        title="Metascheduling strategies and staleness",
        text=table_a + "\n\n" + table_b,
        data=data,
    )

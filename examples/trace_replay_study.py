#!/usr/bin/env python
"""Policy study by trace replay.

Generates a workload once (a 10-day campaign), exports it to SWF, then
replays the *same* trace against three scheduling policies on the same
machine — the methodology used for archived Parallel Workloads Archive
traces, demonstrated end to end: simulate → serialize → parse → replay.

Run:  python examples/trace_replay_study.py
"""

import io

from repro.core.report import ascii_table
from repro.infra.cluster import Cluster
from repro.infra.queues import default_queues
from repro.infra.scheduler import (
    EasyBackfillScheduler,
    FairshareScheduler,
    FcfsScheduler,
)
from repro.infra.units import HOUR
from repro.sim import Simulator
from repro.users.population import PopulationSpec
from repro.workloads import (
    ScenarioConfig,
    arrivals_from_records,
    records_to_swf,
    replay,
    run_scenario,
    swf_to_records,
)


def main() -> None:
    print("Generating the source workload (10 days)...")
    source = run_scenario(
        ScenarioConfig(
            scale="small", days=10, seed=33, population=PopulationSpec(scale=0.03)
        )
    )

    # Round-trip through SWF, exactly as an archived trace would arrive.
    buffer = io.StringIO()
    records_to_swf(source.records, buffer)
    buffer.seek(0)
    trace = swf_to_records(buffer)
    print(f"Trace: {len(trace)} jobs serialized and re-parsed.\n")

    cluster = Cluster("replay-mach", nodes=48, cores_per_node=16)
    rows = []
    for label, policy in [
        ("FCFS", FcfsScheduler),
        ("EASY backfill", EasyBackfillScheduler),
        ("EASY + fairshare", FairshareScheduler),
    ]:
        sim = Simulator()
        scheduler = policy(sim, cluster)
        arrivals = arrivals_from_records(
            trace, default_queues(cluster), max_cores=cluster.total_cores
        )
        result = replay(sim, scheduler, arrivals)
        rows.append(
            [
                label,
                f"{100 * result.utilization:.1f}%",
                f"{result.median_wait() / HOUR:.2f}h",
                sum(1 for j in result.jobs if j.state.is_terminal),
            ]
        )
    print(
        ascii_table(
            ["policy", "utilization", "median wait", "jobs finished"],
            rows,
            title="Same trace, three policies",
        )
    )


if __name__ == "__main__":
    main()

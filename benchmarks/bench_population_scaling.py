"""Bench: the coupled campaign across populations.

Runs the coupled 2-day campaign (seed 9) at the canonical population scale
and at 4x and 10x it, recording wall-clock, deterministic sim events and
events per second per leg into ``results/BENCH_population_scaling.json``
(the machine-readable convention of the other benches).  The ROADMAP's
scheduler item reads its "coupled events/s at scale 0.5 within 2x of scale
0.05" criterion off these legs.  Wall time on a shared host is noise, so
nothing here asserts on it.
"""

import os
import time

from conftest import _write_bench_json

SEED = 9
DAYS = 2.0
SCALES = (0.05, 0.2, 0.5)  # canonical, 4x, 10x population


def test_population_scaling():
    from repro.obs import traced_simulation
    from repro.users.population import PopulationSpec
    from repro.workloads.synthetic import ScenarioConfig, run_scenario

    rows = []
    for scale in SCALES:
        config = ScenarioConfig(
            days=DAYS, seed=SEED, population=PopulationSpec(scale=scale)
        )
        with traced_simulation() as tracer:
            started = time.perf_counter()
            result = run_scenario(config)
            wall = time.perf_counter() - started
        rows.append(
            {
                "population_scale": scale,
                "wall_seconds": round(wall, 3),
                "sim_events": tracer.events_total,
                "events_per_second": round(tracer.events_total / wall, 1),
                "records": len(result.records),
            }
        )
    path = _write_bench_json(
        "population_scaling",
        {
            "bench": "population_scaling",
            "days": DAYS,
            "seed": SEED,
            "host_cores": os.cpu_count() or 1,
            "rows": rows,
        },
    )
    print(f"\n[archived to {path}]")
    for row in rows:
        print(
            f"scale={row['population_scale']:<5g} "
            f"wall={row['wall_seconds']:7.2f}s "
            f"events={row['sim_events']:6d} "
            f"eps={row['events_per_second']:9.1f}"
        )

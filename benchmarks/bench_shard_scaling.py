"""Bench: the multi-cell model — population x shards sweep.

Sweeps the campaign population against the coupled baseline and the
multi-cell path (``run_scenario_sharded``), recording wall-clock and
deterministic sim-event throughput per leg into
``results/BENCH_shard_scaling.json`` (the machine-readable convention of
the other benches).  ``run_scenario_sharded`` runs cells one after another
in one process, so every speedup recorded here is *algorithmic* —
decoupling the shared heap and the O(population) per-event scans — not
parallelism, and no ``--jobs`` value multiplies it.
"""

import os
import time

from conftest import _write_bench_json

SEED = 9
DAYS = 2.0
SCALES = (0.05, 0.2, 0.5)  # canonical, 4x, 10x population


def _timed(fn):
    from repro.obs import traced_simulation

    with traced_simulation() as tracer:
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
    return result, wall, tracer.events_total


def test_shard_scaling():
    from repro.users.population import PopulationSpec
    from repro.workloads.sharding import cell_count, run_scenario_sharded
    from repro.workloads.synthetic import ScenarioConfig, run_scenario

    rows = []
    for scale in SCALES:
        config = ScenarioConfig(
            days=DAYS, seed=SEED, population=PopulationSpec(scale=scale)
        )
        _, legacy_wall, legacy_events = _timed(lambda: run_scenario(config))
        for shards in (1, 4):
            artifact, wall, events = _timed(
                lambda: run_scenario_sharded(config, shards=shards)
            )
            rows.append(
                {
                    "population_scale": scale,
                    "cells": cell_count(scale),
                    "shards": shards,
                    "wall_seconds": round(wall, 3),
                    "sim_events": events,
                    "events_per_second": round(events / wall, 1),
                    "records": len(artifact.records),
                    "legacy_wall_seconds": round(legacy_wall, 3),
                    "legacy_events_per_second": round(
                        legacy_events / legacy_wall, 1
                    ),
                }
            )
    path = _write_bench_json(
        "shard_scaling",
        {
            "bench": "shard_scaling",
            "days": DAYS,
            "seed": SEED,
            "host_cores": os.cpu_count() or 1,
            "rows": rows,
        },
    )
    print(f"\n[archived to {path}]")
    for row in rows:
        print(
            f"scale={row['population_scale']:<5g} cells={row['cells']:<3d} "
            f"shards={row['shards']} wall={row['wall_seconds']:7.2f}s "
            f"eps={row['events_per_second']:9.1f} "
            f"(legacy {row['legacy_wall_seconds']:.2f}s / "
            f"{row['legacy_events_per_second']:.1f} eps)"
        )

    # The tier's acceptance bar: at >=10x the canonical population the
    # sharded path sustains >=2x the coupled baseline's event throughput
    # (measured ~10x; the margin absorbs host noise).
    big = [r for r in rows if r["cells"] >= 10]
    assert big, "sweep never reached the 10x population tier"
    for row in big:
        assert row["events_per_second"] >= 2.0 * row["legacy_events_per_second"], (
            f"sharded throughput regressed: {row['events_per_second']:.0f} eps "
            f"vs legacy {row['legacy_events_per_second']:.0f} eps"
        )

"""F7 — Workflow makespan vs width; co-allocation slowdown vs single site.

Shape expectations: sweep makespan grows sub-linearly in width while the
machine has room, then linearly once the sweep saturates it (the knee sits
near machine_cores / task_cores); a co-allocated coupled run pays the WAN
synchronization overhead (~1.25x runtime) plus the co-scheduling wait
relative to running on one (sufficiently large) machine.
"""

from __future__ import annotations

import repro.infra as infra
from repro.core.report import ascii_table, series_block
from repro.experiments.base import ExperimentOutput, register
from repro.infra.job import Job
from repro.infra.metascheduler import SelectionStrategy
from repro.infra.units import HOUR
from repro.infra.workflow import TaskGraph
from repro.sim import Simulator

__all__ = ["run"]


def _federation(sim, nodes=(32, 24)):
    ledger = infra.AllocationLedger()
    ledger.create("acct", infra.AllocationType.RESEARCH, 1e12, users={"u"})
    central = infra.CentralAccountingDB()
    providers = [
        infra.ResourceProvider(
            sim,
            infra.Cluster(f"site{i}", nodes=n, cores_per_node=8),
            ledger,
            central,
        )
        for i, n in enumerate(nodes)
    ]
    network = infra.Network(sim)
    for p in providers:
        network.add_site(p.name, 1.25e9)
    meta = infra.Metascheduler(providers, SelectionStrategy.PREDICTED_START)
    return providers, meta, network


def _sweep_makespan(width: int) -> float:
    sim = Simulator()
    providers, meta, network = _federation(sim)
    engine = infra.WorkflowEngine(sim, meta, network=network)
    graph = TaskGraph.parameter_sweep(
        "sweep",
        width=width,
        cores=16,
        walltime=1.5 * HOUR,
        true_runtime=1 * HOUR,
        output_bytes=1e9,
    )
    proc = engine.run(graph, user="u", account="acct")
    result = sim.run(until=proc)
    return result.makespan / HOUR


def _coupled_comparison() -> dict:
    # Single-site run of the full application.
    sim = Simulator()
    providers, meta, network = _federation(sim, nodes=(64,))
    job = Job(
        user="u", account="acct", cores=256, walltime=4 * HOUR,
        true_runtime=2 * HOUR, job_id=sim.next_id("job"),
    )
    providers[0].submit(job)
    sim.run(until=10 * HOUR)
    single_elapsed = job.elapsed / HOUR

    # Co-allocated across two half-size machines.
    sim2 = Simulator()
    providers2, meta2, network2 = _federation(sim2, nodes=(32, 32))
    coalloc = infra.CoAllocator(sim2, slack=300.0, wan_overhead_factor=1.25)
    proc = coalloc.launch(
        user="u",
        account="acct",
        parts=[(providers2[0], 128), (providers2[1], 128)],
        walltime=4 * HOUR,
        single_site_runtime=2 * HOUR,
    )
    record = sim2.run(until=proc)
    coupled_elapsed = max(j.elapsed for j in record.jobs) / HOUR
    coupled_total = (record.finished_at - record.requested_at) / HOUR
    return {
        "single_site_runtime_h": single_elapsed,
        "coupled_runtime_h": coupled_elapsed,
        "coupled_total_h": coupled_total,
        "runtime_slowdown": coupled_elapsed / single_elapsed,
        "synchronized": record.synchronized,
    }


@register("F7")
def run(widths: tuple[int, ...] = (4, 8, 16, 32, 64)) -> ExperimentOutput:
    series = []
    rows = []
    for width in widths:
        makespan = _sweep_makespan(width)
        series.append((float(width), makespan))
        rows.append([width, f"{makespan:.2f}h", f"{makespan / (width * 1.0):.3f}h"])
    table_a = ascii_table(
        ["sweep width", "makespan", "makespan/width"],
        rows,
        title="F7a — Parameter-sweep makespan vs width (1h tasks, 16 cores)",
    )
    coupled = _coupled_comparison()
    table_b = ascii_table(
        ["metric", "value"],
        [
            ["single-site runtime", f"{coupled['single_site_runtime_h']:.2f}h"],
            ["coupled runtime (2 sites)", f"{coupled['coupled_runtime_h']:.2f}h"],
            ["coupled total (incl. co-scheduling)",
             f"{coupled['coupled_total_h']:.2f}h"],
            ["runtime slowdown", f"{coupled['runtime_slowdown']:.2f}x"],
            ["parts start synchronized", coupled["synchronized"]],
        ],
        title="F7b — Tightly-coupled co-allocation vs single site",
    )
    figure = series_block(
        "F7 series (x=width, y=makespan hours)", {"makespan": series}
    )
    return ExperimentOutput(
        experiment_id="F7",
        title="Workflow scaling and co-allocation overhead",
        text=table_a + "\n\n" + table_b + "\n\n" + figure,
        data={"sweep": series, "coupled": coupled},
    )

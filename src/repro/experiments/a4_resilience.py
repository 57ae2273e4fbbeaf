"""A4 (ablation) — Modality resilience under unplanned site outages.

Sweeps outage severity (per-site MTBF) against the population's recovery
discipline and measures how much science each usage modality still gets
done.  Every cell is one independent federation campaign with
:class:`~repro.infra.resilience.SiteOutageInjector` processes attached to
each site, the metascheduler rerouting around believed-down machines, and
gateways queueing requests through backend outages.

Shape expectation (written before the first run):

* Metascheduled and gateway-mediated modalities degrade gracefully: their
  submissions fail over to surviving sites or wait in the gateway backlog,
  so completed work stays near the no-outage baseline even at short MTBF.
* Single-site batch work without resubmission falls off a cliff — every job
  caught by an outage is simply lost, and the loss grows with outage rate.
* Turning recovery policies on (resubmit with backoff, checkpoint/restart
  for coupled runs) recovers most of the lost work at the price of some
  wasted core-hours, and abandonments drop accordingly.
* Completed work is monotone in MTBF within a recovery discipline.
"""

from __future__ import annotations

from repro.core.modalities import MODALITY_ORDER
from repro.core.report import ascii_table, counters_footer
from repro.experiments.base import (
    ExperimentOutput,
    ExperimentTask,
    register_tasks,
)
from repro.infra.job import JobState
from repro.infra.resilience import OutagePolicy
from repro.infra.units import DAY, HOUR
from repro.users.behavior import DEFAULT_RECOVERY, no_recovery
from repro.users.population import PopulationSpec
from repro.workloads.synthetic import ScenarioConfig, run_scenario

__all__ = ["plan", "merge"]

_SEED = 37
_DAYS = 20.0
_MTBF_DAYS = (6.0, 2.0)
_RECOVERIES = ("none", "retry")


def _cells(mtbf_days: tuple[float, ...], recoveries: tuple[str, ...]):
    """Cell grid: the no-outage baseline, then MTBF x recovery."""
    cells: list[tuple[float | None, str]] = [(None, "none")]
    for mtbf in mtbf_days:
        for recovery in recoveries:
            cells.append((float(mtbf), recovery))
    return cells


def _cell_label(mtbf: float | None, recovery: str) -> str:
    if mtbf is None:
        return "no outages"
    return f"MTBF {mtbf:g}d / {recovery}"


def _run_cell(mtbf_days: float | None, recovery: str, days: float, seed: int) -> dict:
    outages = None
    if mtbf_days is not None:
        outages = OutagePolicy(
            site_mtbf=mtbf_days * DAY,
            partial_mtbf=2 * mtbf_days * DAY,
        )
    policies = DEFAULT_RECOVERY if recovery == "retry" else no_recovery()
    result = run_scenario(
        ScenarioConfig(
            scale="small",
            days=days,
            seed=seed,
            population=PopulationSpec(scale=0.05),
            outages=outages,
            recovery=policies,
            gateway_backlog=32,
        )
    )

    completed_ch = 0.0
    wasted_ch = 0.0
    by_modality = {m.value: 0.0 for m in MODALITY_ORDER}
    for provider in result.providers:
        for job in provider.scheduler.completed:
            elapsed = job.elapsed or 0.0
            core_hours = job.cores * elapsed / HOUR
            if job.state is JobState.COMPLETED:
                completed_ch += core_hours
                if job.true_modality in by_modality:
                    by_modality[job.true_modality] += core_hours
            elif job.state is JobState.FAILED and not job.will_fail:
                wasted_ch += core_hours

    # Time-to-recover: per full outage, the gap between the site coming back
    # and the first job start there after repair (demand returning).
    ttr_samples = []
    starts_by_site: dict[str, list[float]] = {}
    for provider in result.providers:
        starts_by_site[provider.name] = sorted(
            job.start_time
            for job in provider.scheduler.completed
            if job.start_time is not None
        )
    for injector in result.injectors:
        for outage in injector.outages:
            if outage.kind != "full" or outage.end is None:
                continue
            after = [s for s in starts_by_site[outage.site] if s >= outage.end]
            if after:
                ttr_samples.append(after[0] - outage.end)

    ctx = result.context
    meta = result.metascheduler
    return {
        "label": _cell_label(mtbf_days, recovery),
        "mtbf_days": mtbf_days,
        "recovery": recovery,
        "completed_ch": completed_ch,
        "wasted_ch": wasted_ch,
        "by_modality": by_modality,
        "outages": sum(i.outage_count for i in result.injectors),
        "jobs_killed": sum(i.jobs_killed for i in result.injectors),
        "reroutes": meta.reroutes,
        "requeues": meta.requeues,
        "resubmissions": sum(ctx.resubmissions.values()),
        "abandonments": sum(ctx.abandonments.values()),
        "deferrals": sum(ctx.deferrals.values()),
        "gw_queued": sum(g.requests_queued for g in result.gateways.values()),
        "gw_shed": sum(g.requests_shed for g in result.gateways.values()),
        "gw_drained": sum(
            g.backlog_submitted for g in result.gateways.values()
        ),
        "ttr_mean_hours": (
            sum(ttr_samples) / len(ttr_samples) / HOUR if ttr_samples else None
        ),
        "ttr_count": len(ttr_samples),
    }


def plan(
    seed: int = _SEED,
    days: float = _DAYS,
    mtbf_days: tuple[float, ...] = _MTBF_DAYS,
    recoveries: tuple[str, ...] = _RECOVERIES,
) -> list[ExperimentTask]:
    tasks = []
    for mtbf, recovery in _cells(tuple(mtbf_days), tuple(recoveries)):
        tasks.append(
            ExperimentTask(
                experiment_id="A4",
                index=len(tasks),
                params={
                    "mtbf_days": mtbf,
                    "recovery": recovery,
                    "days": float(days),
                    "seed": int(seed),
                },
                seed=int(seed),
            )
        )
    return tasks


def merge(
    partials: list[dict],
    seed: int = _SEED,
    days: float = _DAYS,
    mtbf_days: tuple[float, ...] = _MTBF_DAYS,
    recoveries: tuple[str, ...] = _RECOVERIES,
) -> ExperimentOutput:
    baseline = partials[0]
    rows = []
    for cell in partials:
        ttr = cell["ttr_mean_hours"]
        rows.append(
            [
                cell["label"],
                f"{cell['completed_ch']:,.0f}",
                f"{100 * cell['completed_ch'] / baseline['completed_ch']:.1f}%"
                if baseline["completed_ch"] > 0
                else "n/a",
                f"{cell['wasted_ch']:,.0f}",
                f"{cell['outages']}",
                f"{cell['abandonments']}",
                f"{60 * ttr:.1f}m" if ttr is not None else "-",
            ]
        )
    table_a = ascii_table(
        [
            "cell",
            "completed core-h",
            "vs baseline",
            "wasted core-h",
            "outages",
            "abandoned",
            "time-to-recover",
        ],
        rows,
        title=(
            f"A4a — Completed science vs outage rate and recovery discipline "
            f"({days:g}-day federation campaigns)"
        ),
    )

    # Per-modality retention at the harshest MTBF, with and without recovery.
    headers = ["modality", *(cell["label"] for cell in partials[1:])]
    retention_rows = []
    for modality in MODALITY_ORDER:
        base = baseline["by_modality"].get(modality.value, 0.0)
        row = [modality.value]
        for cell in partials[1:]:
            if base > 0:
                got = cell["by_modality"].get(modality.value, 0.0)
                row.append(f"{100 * got / base:.0f}%")
            else:
                row.append("-")
        retention_rows.append(row)
    table_b = ascii_table(
        headers,
        retention_rows,
        title="A4b — Per-modality completed work retained (vs no-outage baseline)",
    )

    footer = counters_footer(
        {
            "outages": sum(c["outages"] for c in partials),
            "jobs_killed": sum(c["jobs_killed"] for c in partials),
            "reroutes": sum(c["reroutes"] for c in partials),
            "requeues": sum(c["requeues"] for c in partials),
            "resubmissions": sum(c["resubmissions"] for c in partials),
            "abandonments": sum(c["abandonments"] for c in partials),
            "deferrals": sum(c["deferrals"] for c in partials),
            "gateway_queued": sum(c["gw_queued"] for c in partials),
            "gateway_shed": sum(c["gw_shed"] for c in partials),
            "gateway_drained": sum(c["gw_drained"] for c in partials),
        }
    )
    text = "\n\n".join([table_a, table_b, footer])
    return ExperimentOutput(
        experiment_id="A4",
        title="Resilience ablation under unplanned site outages",
        text=text,
        data={cell["label"]: cell for cell in partials},
    )


register_tasks("A4", plan=plan, execute=_run_cell, merge=merge)

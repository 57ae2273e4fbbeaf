"""F8 — Pilot jobs: ensemble throughput vs measurement visibility.

Pilot systems (SAGA BigJob, Condor glide-ins) were how serious ensemble
users escaped per-task queue waits on the TeraGrid.  Two consequences,
quantified here on the same busy machine:

* **measurement** (the reproduction target) — accounting sees *one
  placeholder job*: an uninstrumented pilot turns an ensemble user into a
  batch user in the measured modality table.  A pilot that forwards the
  ensemble attribute restores the truth — the paper's instrumentation
  argument extended to pilot middleware.  Shape expectation: records seen
  drop from W to 1; measured modality flips ENSEMBLE → BATCH for the
  untagged pilot and back for the tagged one.
* **performance** (reported, not asserted) — folklore says a W-task ensemble
  pays one queue wait instead of W.  Under this package's idealized EASY
  backfill that advantage does *not* materialize: tiny short tasks are
  perfect backfill filler and start almost immediately even on a saturated
  machine, while the medium-sized pilot placeholder waits like any other
  medium job.  The pilot's real-world wins rested on queue frictions outside
  this model (scheduler iteration intervals, deep priority backlogs,
  fair-share starvation of bursty users); the makespan column quantifies the
  gap under the frictions that *are* modeled (per-user eligibility caps).
"""

from __future__ import annotations

import repro.infra as infra
from repro.core import AttributeClassifier
from repro.core.report import ascii_table
from repro.experiments.base import ExperimentOutput, register
from repro.infra.job import AttributeKeys, Job
from repro.infra.pilot import PilotTask
from repro.infra.units import DAY, HOUR
from repro.sim import AllOf, RandomStreams, Simulator
from repro.workloads.replay import feed, single_site_workload

__all__ = ["run"]

ENSEMBLE_USER = "ens_user"


def _make_site(sim, seed, days, load, max_eligible_per_user=4):
    """A busy site with a Moab-style per-user eligibility cap.

    The cap is what made pilots attractive in production: a 40-job sweep
    trickles through the scheduler ``max_eligible_per_user`` jobs at a time,
    while a pilot is one job.
    """
    from repro.infra.scheduler import EasyBackfillScheduler

    ledger = infra.AllocationLedger()
    ledger.create("acct", infra.AllocationType.RESEARCH, 1e12,
                  users={"u", ENSEMBLE_USER})
    central = infra.CentralAccountingDB()
    cluster = infra.Cluster("mach", nodes=64, cores_per_node=8)
    def factory(sim, cluster, on_job_end=None):
        return EasyBackfillScheduler(
            sim,
            cluster,
            on_job_end=on_job_end,
            max_eligible_per_user=max_eligible_per_user,
        )

    site = infra.ResourceProvider(
        sim, cluster, ledger, central, scheduler_factory=factory
    )
    rng = RandomStreams(seed).stream("f8-background")
    arrivals = single_site_workload(sim, rng, cluster, days, load=load)
    feed(sim, site.scheduler.submit, arrivals)
    return site, central


def _seen_by_accounting(site, central, outcome) -> dict:
    """Add the ensemble user's records and measured modality to ``outcome``.

    The modality reads ``-`` when the user left no record: the ensemble
    starts on day 2, and a pilot leaves its one record when it ends.
    """
    site.feed.drain()
    records = central.records_of_user(ENSEMBLE_USER)
    outcome["records_seen"] = len(records)
    outcome["measured_modality"] = (
        AttributeClassifier().classify(records).identity_primary[ENSEMBLE_USER].value
        if records
        else "-"
    )
    return outcome


def _direct_arm(seed, days, load, width, task_cores, task_runtime):
    sim = Simulator()
    site, central = _make_site(sim, seed, days, load)

    outcome = {}

    def driver(sim):
        t0 = sim.now
        waits = []
        for i in range(width):
            job = Job(
                user=ENSEMBLE_USER,
                account="acct",
                cores=task_cores,
                walltime=task_runtime * 1.5,
                true_runtime=task_runtime,
                job_id=sim.next_id("job"),
                attributes={AttributeKeys.ENSEMBLE_ID: "f8-sweep"},
            )
            site.submit(job)
            waits.append(site.scheduler.wait_for(job))
            yield sim.timeout(10.0)
        yield AllOf(sim, waits)
        outcome["makespan_h"] = (sim.now - t0) / HOUR

    def starter(sim):
        yield sim.timeout(2 * DAY)  # let the queue fill first
        yield sim.process(driver(sim))

    sim.process(starter(sim), name="driver")
    sim.run(until=days * DAY)
    return _seen_by_accounting(site, central, outcome)


def _pilot_arm(seed, days, load, width, task_cores, task_runtime, tagged):
    sim = Simulator()
    site, central = _make_site(sim, seed, days, load)
    manager = infra.PilotManager(sim)
    outcome = {}

    pilot_cores = 16 * task_cores // 2  # enough for 8 concurrent tasks
    work_hours = width * task_runtime / (pilot_cores / task_cores)
    walltime = work_hours * 1.3 + HOUR

    def driver(sim):
        t0 = sim.now
        attributes = (
            {AttributeKeys.ENSEMBLE_ID: "f8-sweep"} if tagged else {}
        )
        pilot = manager.launch(
            site,
            user=ENSEMBLE_USER,
            account="acct",
            cores=pilot_cores,
            walltime=walltime,
            attributes=attributes,
        )
        tasks = [
            pilot.submit_task(PilotTask(cores=task_cores, runtime=task_runtime))
            for _ in range(width)
        ]
        yield site.scheduler.wait_for(pilot.job)
        done = [t for t in tasks if t.done]
        outcome["tasks_completed"] = len(done)
        if done:
            outcome["makespan_h"] = (
                max(t.finished_at for t in done) - t0
            ) / HOUR

    def starter(sim):
        yield sim.timeout(2 * DAY)
        yield sim.process(driver(sim))

    sim.process(starter(sim), name="driver")
    sim.run(until=days * DAY)
    return _seen_by_accounting(site, central, outcome)


@register("F8")
def run(
    days: float = 8.0,
    seed: int = 17,
    load: float = 0.85,
    width: int = 160,
    task_cores: int = 8,
    task_runtime: float = 0.25 * HOUR,
) -> ExperimentOutput:
    """Defaults model the canonical pilot use case — many *short* tasks,
    where per-wave queue waits (under the site's per-user eligibility cap)
    dwarf task runtime.  For hour-scale tasks the direct path competes; see
    the knobs to explore that regime."""
    direct = _direct_arm(seed, days, load, width, task_cores, task_runtime)
    pilot_untagged = _pilot_arm(
        seed, days, load, width, task_cores, task_runtime, tagged=False
    )
    pilot_tagged = _pilot_arm(
        seed, days, load, width, task_cores, task_runtime, tagged=True
    )
    rows = []
    for label, outcome in [
        (f"direct ({width} jobs)", direct),
        ("pilot (untagged)", pilot_untagged),
        ("pilot (ensemble attribute)", pilot_tagged),
    ]:
        # An ensemble that has not finished by the horizon has no makespan.
        makespan = outcome.get("makespan_h")
        rows.append(
            [
                label,
                "-" if makespan is None else f"{makespan:.1f}h",
                outcome["records_seen"],
                outcome["measured_modality"],
            ]
        )
    text = ascii_table(
        ["submission path", "ensemble makespan", "accounting records",
         "measured modality"],
        rows,
        title=(
            f"F8 — Pilot jobs vs direct submission "
            f"({width} x {task_cores}-core {task_runtime / HOUR:g}h tasks on a "
            f"machine at {load:.0%} load)"
        ),
    )
    return ExperimentOutput(
        experiment_id="F8",
        title="Pilot-job throughput and the pilot measurement gap",
        text=text,
        data={
            "direct": direct,
            "pilot_untagged": pilot_untagged,
            "pilot_tagged": pilot_tagged,
        },
    )

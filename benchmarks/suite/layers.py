"""The per-layer view: which entry points are wrapped, and what they yield.

Layers are named after repro modules.  Each is measured from outside, by a
span around calls into its public entry points (see :mod:`spans`); the sim
kernel and user behaviours, which have no entry point of their own, are
split with the kernel's :class:`~repro.obs.trace.SimTracer`:

* ``sim.run_frac`` is ``Simulator.run`` inclusive time;
* the tracer's callback wall is the part of it spent inside event callbacks;
* ``sim.kernel_self_frac`` = run time - callback wall (heap and dispatch);
* ``users.self_frac`` = callback wall - wrapped spans inside ``run``, i.e.
  behaviour generators and every other callback no wrapper claims.

Times are shares of the traced rep's wall time (``obs.traced_rep_s``), so a
layer a workload never enters reads 0 and the shares of one rep add to 1
with ``obs.unattributed_frac``.  Counts are exact: they depend only on the
simulated input, never on the host.
"""

from __future__ import annotations

from statistics import median

from spans import SpanRecorder

#: Collapsed ``SimTracer`` process types -> subsystem.  A type matches an
#: entry exactly or, for entries ending in ``-``, by prefix; the rest is
#: ``other`` (pilots, co-allocation, gateway backlog drains).  The
#: experiments' own arrival drivers (``feeder``, ``background``,
#: ``driver``) submit jobs on users' behalf, so they count as users.
RESUME_GROUPS = {
    "scheduler": ("job", "sched-wake", "reservation"),
    "users": (
        "batch", "exploratory", "ensemble", "gateway", "viz", "coupled",
        "local-copy", "task-", "workflow-", "gw-request-", "recover",
        "feeder", "background", "driver",
    ),
    "accounting": ("amie-feed", "amie-ack-watch", "amie-transit"),
    "network": ("net-waker",),
    "infoservice": ("info-service",),
    "faults": (
        "fault-injector", "outage", "rack-outage", "maintenance", "drain-cycle",
    ),
}

#: Layers whose self time is reported as ``<layer>.self_frac``.
SELF_LAYERS = (
    "scheduler", "site", "metascheduler", "accounting", "network", "gateway",
    "workloads", "core", "experiments",
)

#: Counts the wrappers take; every one is reported under its own name.
WORK_COUNTS = (
    "scheduler.passes", "scheduler.queue_scanned", "scheduler.profile_builds",
    "scheduler.available_during_calls", "scheduler.earliest_start_calls",
    "scheduler.can_start_now_calls", "scheduler.starts",
    "site.submits", "metascheduler.selects",
    "accounting.ingest_calls", "accounting.records_ingested",
    "amie.packets_received", "network.transfers", "gateway.requests",
    "core.classify_calls", "core.records_classified",
    "runner.artifact.saves", "runner.artifact.save_bytes",
    "runner.artifact.loads", "runner.artifact.load_bytes",
    "runner.cache.writes",
)


def resume_group(process_type: str) -> str:
    for group, types in RESUME_GROUPS.items():
        for entry in types:
            if process_type == entry or (
                entry.endswith("-") and process_type.startswith(entry)
            ):
                return group
    return "other"


def _counting(counts, name):
    def around(original, *args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    return around


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's entry points; ``recorder`` restores them on exit."""
    from repro.core.classifier import AttributeClassifier, HeuristicClassifier
    from repro.experiments.base import CAMPAIGN_STAGE_ID, execute_task
    from repro.infra.accounting import CentralAccountingDB
    from repro.infra.amie import AmieIngestEndpoint
    from repro.infra.gateway import ScienceGateway
    from repro.infra.metascheduler import Metascheduler
    from repro.infra.network import Network
    from repro.infra.scheduler.base import BatchScheduler
    from repro.infra.scheduler.profile import CapacityProfile
    from repro.infra.site import ResourceProvider
    from repro.runner import artifacts
    from repro.runner.cache import ResultCache
    from repro.sim.engine import Simulator
    from repro.workloads.synthetic import run_scenario

    counts = recorder.counts
    wrap = recorder.wrap_method

    def schedule_pass(original, scheduler):
        counts["scheduler.passes"] += 1
        counts["scheduler.queue_scanned"] += len(scheduler.queue)
        starts = counts["scheduler.starts"]
        try:
            return original(scheduler)
        finally:
            if counts["scheduler.starts"] > starts:
                counts["scheduler.useful_passes"] += 1

    def ingest(original, db, records):
        counts["accounting.ingest_calls"] += 1
        added, duplicates = original(db, records)
        counts["accounting.records_ingested"] += added
        return added, duplicates

    def classify(original, classifier, records):
        counts["core.classify_calls"] += 1
        result = original(classifier, records)
        counts["core.records_classified"] += len(result.job_labels)
        return result

    def save(original, store, key, artifact):
        original(store, key, artifact)
        counts["runner.artifact.saves"] += 1
        counts["runner.artifact.save_bytes"] += store.path_for(key).stat().st_size

    def load(original, store, key):
        counts["runner.artifact.loads"] += 1
        disk_loads = artifacts.STATS.loads
        artifact = original(store, key)
        if artifacts.STATS.loads > disk_loads:
            counts["runner.artifact.load_bytes"] += (
                store.path_for(key).stat().st_size
            )
        return artifact

    def task_layer(task):
        if task.experiment_id == CAMPAIGN_STAGE_ID:
            return "workloads"
        return f"experiments.{task.experiment_id}"

    wrap(Simulator, "run", "sim")
    wrap(BatchScheduler, "_schedule_pass", "scheduler", schedule_pass)
    wrap(BatchScheduler, "build_profile", "scheduler",
         _counting(counts, "scheduler.profile_builds"))
    wrap(BatchScheduler, "can_start_now", "scheduler",
         _counting(counts, "scheduler.can_start_now_calls"))
    wrap(BatchScheduler, "earliest_start", "scheduler")
    wrap(BatchScheduler, "_start", "scheduler",
         _counting(counts, "scheduler.starts"))
    wrap(CapacityProfile, "available_during", "scheduler",
         _counting(counts, "scheduler.available_during_calls"))
    wrap(CapacityProfile, "earliest_start", "scheduler",
         _counting(counts, "scheduler.earliest_start_calls"))
    wrap(ResourceProvider, "submit", "site", _counting(counts, "site.submits"))
    wrap(Metascheduler, "select", "metascheduler",
         _counting(counts, "metascheduler.selects"))
    wrap(CentralAccountingDB, "ingest", "accounting", ingest)
    wrap(AmieIngestEndpoint, "receive", "accounting",
         _counting(counts, "amie.packets_received"))
    wrap(Network, "transfer", "network", _counting(counts, "network.transfers"))
    wrap(ScienceGateway, "request", "gateway",
         _counting(counts, "gateway.requests"))
    wrap(AttributeClassifier, "classify", "core", classify)
    wrap(HeuristicClassifier, "classify", "core", classify)
    wrap(artifacts.ArtifactStore, "save", "runner.artifact.save", save)
    wrap(artifacts.ArtifactStore, "load", "runner.artifact.load", load)
    wrap(ResultCache, "put", "runner.cache.put",
         _counting(counts, "runner.cache.writes"))
    recorder.wrap_function(run_scenario, "workloads")
    recorder.wrap_function(execute_task, task_layer)


def traced_metrics(recorder: SpanRecorder, tracer, wall: float) -> dict:
    """One traced rep's per-layer numbers (``wall``: the rep's wall time)."""
    from repro.experiments.reporting import FAST_KNOBS

    def share(seconds: float) -> float:
        return seconds / wall

    run = recorder.totals("sim")
    callbacks = tracer.wall_total
    inside_run = run.total_s - run.self_s
    metrics = {
        "sim.events": tracer.events_total,
        "sim.heap_high_water": tracer.heap_high_water,
        "sim.run_frac": share(run.total_s),
        "sim.kernel_self_frac": share(max(run.total_s - callbacks, 0.0)),
        "users.self_frac": share(max(callbacks - inside_run, 0.0)),
    }
    resumes = dict.fromkeys((*RESUME_GROUPS, "other"), 0)
    for process_type, count in tracer.resumes_by_process.items():
        resumes[resume_group(process_type)] += count
    metrics.update({f"sim.resumes.{group}": n for group, n in resumes.items()})

    counts = recorder.counts
    metrics.update({name: counts[name] for name in WORK_COUNTS})
    passes = counts["scheduler.passes"]
    metrics["scheduler.useful_pass_frac"] = (
        counts["scheduler.useful_passes"] / passes if passes else 0.0
    )
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_frac"] = share(recorder.self_seconds(layer))
    for experiment_id in FAST_KNOBS:
        metrics[f"experiments.{experiment_id}_frac"] = share(
            recorder.totals(f"experiments.{experiment_id}").total_s
        )
    metrics["runner.artifact.save_frac"] = share(
        recorder.totals("runner.artifact.save").total_s
    )
    metrics["runner.artifact.load_frac"] = share(
        recorder.totals("runner.artifact.load").total_s
    )
    metrics["runner.cache.put_frac"] = share(
        recorder.totals("runner.cache.put").total_s
    )
    attributed = sum(totals.self_s for totals in recorder.layers.values())
    metrics["obs.unattributed_frac"] = max(1.0 - share(attributed), 0.0)
    return metrics


def runner_metrics(records: list[dict], wall: float, jobs: int) -> dict:
    """Runner-stage numbers from one untraced rep's telemetry records."""
    from repro.experiments.base import CAMPAIGN_STAGE_ID

    summary = next(
        record for record in reversed(records)
        if record.get("type") == "summary" and "stage_seconds" in record
    )
    stages = summary["stage_seconds"]
    tasks = [
        record for record in records
        if record.get("type") == "span" and record.get("name") == "task"
    ]
    busy = sum(task["duration"] for task in tasks)
    stage_wall = stages.get("campaign", 0.0) + stages.get("measure", 0.0)
    campaigns = summary["campaign_stats"]
    return {
        "runner.stage.plan_frac": stages.get("plan", 0.0) / wall,
        "runner.stage.campaign_frac": stages.get("campaign", 0.0) / wall,
        "runner.stage.measure_frac": stages.get("measure", 0.0) / wall,
        "runner.tasks": sum(
            1 for task in tasks if task["experiment"] != CAMPAIGN_STAGE_ID
        ),
        "runner.retries": summary["counters"]["retries"],
        "runner.campaigns.simulated": campaigns["simulated"],
        "runner.campaigns.reused": campaigns["reused"],
        "runner.campaigns.fallbacks": campaigns["fallbacks"],
        "runner.critical_task_frac": (
            max(task["duration"] for task in tasks) / wall if tasks else 0.0
        ),
        "runner.pool_busy_frac": busy / (jobs * stage_wall) if stage_wall else 0.0,
    }


#: Runner-stage metrics of workloads that do not go through the runner.
NO_RUNNER = {
    "runner.stage.plan_frac": 0.0,
    "runner.stage.campaign_frac": 0.0,
    "runner.stage.measure_frac": 0.0,
    "runner.tasks": 0,
    "runner.retries": 0,
    "runner.campaigns.simulated": 0,
    "runner.campaigns.reused": 0,
    "runner.campaigns.fallbacks": 0,
    "runner.critical_task_frac": 0.0,
    "runner.pool_busy_frac": 0.0,
}


def combine(samples: list[dict]) -> dict:
    """Counts from the first sample; shares as the median over samples."""
    first = samples[0]
    return {
        name: value if isinstance(value, int) else median(s[name] for s in samples)
        for name, value in first.items()
    }


def counts_repeat(samples: list[dict]) -> bool:
    """Whether every exact count reads the same in every sample."""
    first = samples[0]
    return all(
        sample[name] == value
        for sample in samples[1:]
        for name, value in first.items()
        if isinstance(value, int)
    )

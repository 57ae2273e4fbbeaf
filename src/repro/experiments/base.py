"""Experiment plumbing: output container, registry, task plans, campaign cache.

Two execution protocols coexist:

* the classic ``run(**knobs) -> ExperimentOutput`` registry, used by
  ``run_experiment`` — every experiment supports it;
* an optional *task plan* (``register_tasks``): the experiment declares the
  independent units of work it is made of (one per replicate/sweep point),
  a pure ``execute(params)`` that computes one unit, and a deterministic
  ``merge(partials, **knobs)`` that assembles the final output.  The
  parallel runner (:mod:`repro.runner`) fans the tasks out over worker
  processes; ``plan_tasks``/``merge_tasks`` below are its only entry points
  into this module, so serial and parallel execution share one code path
  and produce byte-identical output.

Experiments without a declared plan get a synthesized single-task plan that
wraps their ``run`` function, so the runner can treat every experiment
uniformly (coarse-grained parallelism across experiments at worst).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.workloads import ScenarioResult, run_scenario
from repro.workloads.synthetic import (
    CAMPAIGN_DAYS,
    CAMPAIGN_POPULATION_SCALE,
    CAMPAIGN_SCALE,
    CAMPAIGN_SEED,
    CampaignArtifact,
    CampaignKey,
)

__all__ = [
    "ExperimentOutput",
    "ExperimentTask",
    "TaskPlan",
    "registry",
    "task_plans",
    "campaign_plans",
    "register",
    "register_tasks",
    "register_campaigns",
    "run_experiment",
    "run_via_tasks",
    "plan_tasks",
    "plan_timeout",
    "execute_task",
    "merge_tasks",
    "campaign",
    "campaign_key",
    "task_campaign_keys",
    "CAMPAIGN_STAGE_ID",
    "CAMPAIGN_DAYS",
    "CAMPAIGN_SEED",
]

#: Pseudo experiment id of the runner's stage-1 (simulate-a-campaign) tasks.
CAMPAIGN_STAGE_ID = "__campaign__"


@dataclass
class ExperimentOutput:
    """One regenerated table or figure."""

    experiment_id: str
    title: str
    text: str  # rendered tables / series blocks
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"


registry: dict[str, Callable[..., ExperimentOutput]] = {}


def register(experiment_id: str):
    """Decorator: add an experiment ``run`` function to the registry."""

    def wrap(func: Callable[..., ExperimentOutput]):
        if experiment_id in registry:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        registry[experiment_id] = func
        return func

    return wrap


def run_experiment(experiment_id: str, **knobs) -> ExperimentOutput:
    try:
        func = registry[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(registry)}"
        ) from None
    return func(**knobs)


@dataclass(frozen=True)
class ExperimentTask:
    """One independent, cacheable unit of work of an experiment.

    ``params`` must be plain picklable data (they cross the process
    boundary and are hashed into the result-cache key); ``seed`` is the
    master seed the unit simulates with, recorded separately so the cache
    key scheme ``(experiment, params-hash, seed)`` stays explicit even when
    the seed also appears inside ``params``.
    """

    experiment_id: str
    index: int
    params: dict
    seed: int


@dataclass(frozen=True)
class TaskPlan:
    """A declared decomposition of one experiment into tasks.

    ``timeout`` (wall-clock seconds per task) overrides the runner-level
    ``--task-timeout`` for this experiment's tasks — long fault-injected
    campaigns legitimately need more rope than a quick table regeneration.
    ``None`` defers to the runner's default.
    """

    plan: Callable[..., list[ExperimentTask]]
    execute: Callable[[dict], Any]
    merge: Callable[..., ExperimentOutput]
    timeout: Optional[float] = None


task_plans: dict[str, TaskPlan] = {}


def register_tasks(
    experiment_id: str,
    plan: Callable[..., list[ExperimentTask]],
    execute: Callable[[dict], Any],
    merge: Callable[..., ExperimentOutput],
    timeout: Optional[float] = None,
) -> None:
    """Declare ``experiment_id``'s task decomposition (see module docstring)."""
    if experiment_id in task_plans:
        raise ValueError(f"duplicate task plan for {experiment_id!r}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"{experiment_id}: task timeout must be positive")
    task_plans[experiment_id] = TaskPlan(
        plan=plan, execute=execute, merge=merge, timeout=timeout
    )


def plan_timeout(experiment_id: str) -> Optional[float]:
    """The experiment's declared per-task timeout override (None = defer)."""
    declared = task_plans.get(experiment_id)
    return declared.timeout if declared is not None else None


def _default_plan(experiment_id: str, **knobs) -> list[ExperimentTask]:
    """Synthesized one-task plan for experiments without a declared one."""
    # The seed field is part of the cache key; when the experiment runs on
    # its internal default seed (no knob given) any stable value works —
    # the default itself is code, covered by the store's code version.
    seed = int(knobs.get("seed", CAMPAIGN_SEED))
    return [
        ExperimentTask(
            experiment_id=experiment_id,
            index=0,
            params=dict(knobs, __whole__=experiment_id),
            seed=seed,
        )
    ]


def plan_tasks(experiment_id: str, **knobs) -> list[ExperimentTask]:
    """The experiment's task list (declared, or the synthesized default)."""
    if experiment_id not in registry:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(registry)}"
        )
    declared = task_plans.get(experiment_id)
    if declared is None:
        return _default_plan(experiment_id, **knobs)
    tasks = declared.plan(**knobs)
    for position, task in enumerate(tasks):
        if task.index != position or task.experiment_id != experiment_id:
            raise ValueError(
                f"{experiment_id}: task {position} declared as "
                f"({task.experiment_id!r}, index={task.index}); plans must "
                "emit their own id with contiguous indices"
            )
    return tasks


def execute_task(task: ExperimentTask) -> Any:
    """Compute one task's partial result (pure; safe in a worker process)."""
    params = dict(task.params)
    stage_key = params.pop(CAMPAIGN_STAGE_ID, None)
    if stage_key is not None:
        return _execute_campaign_stage(stage_key)
    whole = params.pop("__whole__", None)
    if whole is not None:
        return registry[whole](**params)
    return task_plans[task.experiment_id].execute(params)


def merge_tasks(
    experiment_id: str, partials: list, **knobs
) -> ExperimentOutput:
    """Assemble ordered partial results into the experiment's output.

    ``partials`` must be ordered by task index; merge functions are pure in
    that order, which is what makes parallel output byte-identical to
    serial output no matter how the scheduler interleaved the tasks.
    """
    declared = task_plans.get(experiment_id)
    if declared is None:
        (output,) = partials
        return output
    return declared.merge(partials, **knobs)


def run_via_tasks(experiment_id: str, **knobs) -> ExperimentOutput:
    """Serial reference path: plan, execute in index order, merge."""
    tasks = plan_tasks(experiment_id, **knobs)
    partials = [execute_task(task) for task in tasks]
    return merge_tasks(experiment_id, partials, **knobs)


#: In-process campaign memo, keyed by canonical :class:`CampaignKey`.  Holds
#: live :class:`ScenarioResult` objects (no artifact store) or
#: :class:`CampaignArtifact` snapshots (store active) — the two expose the
#: same measurement surface.
_campaign_cache: dict[CampaignKey, ScenarioResult | CampaignArtifact] = {}

#: :func:`campaign`'s knob names, in :meth:`CampaignKey.make` order.
campaign_key = CampaignKey.make


def campaign(
    days: float = CAMPAIGN_DAYS,
    seed: int = CAMPAIGN_SEED,
    scale: str = CAMPAIGN_SCALE,
    population_scale: float = CAMPAIGN_POPULATION_SCALE,
    gateway_tagging_coverage: float = 1.0,
    gateway_adoption_ramp_days: float = 0.0,
) -> ScenarioResult | CampaignArtifact:
    """The shared campaign, memoized per canonical knob combination.

    Several experiments read different aspects of the same run; the
    in-process memo keeps a serial suite's wall-clock dominated by distinct
    simulations only.  The key is canonicalized (``days=90`` and
    ``days=90.0`` are one campaign), so spelling differences between callers
    can no longer duplicate simulations.

    When an artifact store is active (the parallel runner's two-stage mode,
    :mod:`repro.runner.artifacts`), resolution goes memo → stored
    :class:`CampaignArtifact` → live simulation; a live simulation under an
    active store is serialized back into it so every other process of the
    sweep reuses it instead of re-simulating.
    """
    key = CampaignKey.make(
        days=days,
        seed=seed,
        scale=scale,
        population_scale=population_scale,
        gateway_tagging_coverage=gateway_tagging_coverage,
        gateway_adoption_ramp_days=gateway_adoption_ramp_days,
    )

    cached = _campaign_cache.get(key)
    if cached is not None:
        return cached

    from repro.runner import artifacts as artifact_mod

    store = artifact_mod.active_store()
    if store is not None:
        artifact = store.load(key)
        if artifact is not None:
            _campaign_cache[key] = artifact
            return artifact

    result = run_scenario(key.config())
    if store is not None:
        artifact_mod.note_simulation()
        artifact = CampaignArtifact.from_result(result, key=key)
        store.save(key, artifact)
        _campaign_cache[key] = artifact
        return artifact
    _campaign_cache[key] = result
    return result


# -- campaign dependencies (the runner's stage-1 planning input) ---------------

campaign_plans: dict[str, Callable[[dict], Any]] = {}


def register_campaigns(
    experiment_id: str, campaigns: Callable[[dict], Any]
) -> None:
    """Declare which campaigns ``experiment_id``'s tasks read.

    ``campaigns(params)`` receives one task's params (``__whole__`` already
    stripped) and returns the :class:`CampaignKey` list that task resolves
    through :func:`campaign`.  The parallel runner uses the declarations to
    simulate each distinct campaign exactly once before fanning measurement
    tasks out; an undeclared (or under-declared) experiment still runs
    correctly — its workers just fall back to live simulation on a store
    miss.
    """
    if experiment_id in campaign_plans:
        raise ValueError(f"duplicate campaign plan for {experiment_id!r}")
    campaign_plans[experiment_id] = campaigns


def task_campaign_keys(task: ExperimentTask) -> tuple[CampaignKey, ...]:
    """The campaigns ``task`` is declared to depend on (() = undeclared)."""
    campaigns = campaign_plans.get(task.experiment_id)
    if campaigns is None:
        return ()
    params = {k: v for k, v in task.params.items() if k != "__whole__"}
    return tuple(campaigns(params))


def _execute_campaign_stage(key_fields: dict) -> dict:
    """Stage-1 task body: ensure one campaign's artifact exists.

    Runs inside a worker (or inline): resolves :func:`campaign` under the
    stage marker so a live simulation counts as *expected* work rather than
    a dedup miss, and reports whether this process actually simulated.
    """
    from repro.runner import artifacts as artifact_mod

    key = CampaignKey.make(**key_fields)
    with artifact_mod.campaign_stage():
        before = artifact_mod.STATS.simulations
        result = campaign(**key.asdict())
        simulated = artifact_mod.STATS.simulations > before
        store = artifact_mod.active_store()
        if store is not None and not store.has(key):
            # A memo hit (e.g. a store-less run earlier in this process, or
            # a forked worker inheriting the parent memo) satisfied the call
            # without writing: stage 1's one job is to leave an artifact
            # behind for stage 2 and future runs, so persist it now.
            if not isinstance(result, CampaignArtifact):
                result = CampaignArtifact.from_result(result, key=key)
            store.save(key, result)
    return {"campaign": key.asdict(), "simulated": simulated}

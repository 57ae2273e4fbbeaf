"""Experiment plumbing: output container, registry, task plans, campaign readers.

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

Adding a campaign reader — an experiment that measures a shared campaign
instead of simulating its own rig — takes one decorator.  Write the body
as a function of the campaign's :class:`CampaignArtifact` (plus any knob
that is not a :class:`CampaignKey` field) and wrap it with
:func:`reads_campaign`::

    @register("T9")
    @reads_campaign("T9")
    def run(result: CampaignArtifact) -> ExperimentOutput:
        days = result.key.days  # the campaign's knobs live on its key
        ...

The wrapped function takes the reader's knobs as keywords.
:func:`reader_campaign` maps them to the :class:`CampaignKey` the body
reads — the reader's declared defaults first (``reads_campaign("F1",
days=364.0)``), else :meth:`CampaignKey.make`'s — and passes every other
knob to the body.  The runner's stage 1 plans from the same function
(:func:`task_campaign_keys`), so what a reader declares is what it reads.
A plan's ``execute`` is wrapped the same way (R1, F6); its task params
are then the reader's knobs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Optional

from repro.workloads import run_scenario
from repro.workloads.synthetic import (
    CAMPAIGN_DAYS,
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
    "campaign_readers",
    "register",
    "register_tasks",
    "reads_campaign",
    "reader_campaign",
    "run_experiment",
    "run_via_tasks",
    "plan_tasks",
    "plan_timeout",
    "execute_task",
    "merge_tasks",
    "campaign",
    "forget_campaigns",
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


#: The process's one campaign memo, keyed by canonical :class:`CampaignKey`.
#: Every entry is a :class:`CampaignArtifact`, loaded from the active store
#: or converted once from a live run; it keeps the classifications its
#: readers computed (see :class:`CampaignArtifact`), so clearing the memo
#: drops them too.
_campaign_cache: dict[CampaignKey, CampaignArtifact] = {}


def campaign(**knobs) -> CampaignArtifact:
    """The campaign ``CampaignKey.make(**knobs)`` names, memoized per key.

    Several experiments read different aspects of the same run; the
    in-process memo keeps a serial suite's wall-clock dominated by distinct
    simulations only.  The key is canonicalized (``days=90`` and
    ``days=90.0`` are one campaign), so spelling differences between callers
    can no longer duplicate simulations.
    """
    return _resolve(CampaignKey.make(**knobs))[0]


def forget_campaigns(keys: Iterable[CampaignKey]) -> None:
    """Drop ``keys`` from the campaign memo, with the measurements they hold."""
    for key in keys:
        _campaign_cache.pop(key, None)


def _resolve(
    key: CampaignKey, expected: bool = False
) -> tuple[CampaignArtifact, bool]:
    """``(campaign, simulated)``: memo, then the active store, then a live run.

    A live run is converted to a :class:`CampaignArtifact` once, saved when
    a store is active (so every other process of the sweep loads it instead
    of re-simulating) and memoized either way.  ``expected`` marks the
    runner's stage 1, where a live simulation is the planned work; anywhere
    else one under an active store is a fallback.
    """
    cached = _campaign_cache.get(key)
    if cached is not None:
        return cached, False

    from repro.runner import artifacts as artifact_mod

    store = artifact_mod.active_store()
    if store is not None:
        artifact = store.load(key)
        if artifact is not None:
            _campaign_cache[key] = artifact
            return artifact, False

    artifact = CampaignArtifact.from_result(run_scenario(key.config()), key=key)
    if store is not None:
        artifact_mod.STATS.simulations += 1
        if not expected:
            artifact_mod.STATS.fallbacks += 1
        store.save(key, artifact)
    _campaign_cache[key] = artifact
    return artifact, True


# -- campaign readers (the runner's stage-1 planning input) --------------------

#: Each campaign reader's declared knob defaults, by experiment id.
campaign_readers: dict[str, dict] = {}

_KEY_FIELDS = frozenset(f.name for f in fields(CampaignKey))


def reader_campaign(experiment_id: str, knobs: dict) -> tuple[CampaignKey, dict]:
    """``(key, rest)``: the campaign a reader's ``knobs`` name, and the rest.

    The reader's declared defaults come first, then ``knobs``; the
    :class:`CampaignKey` fields among them name the campaign (missing ones
    take :meth:`CampaignKey.make`'s defaults) and every other knob is
    returned for the body.
    """
    merged = {**campaign_readers[experiment_id], **knobs}
    key = CampaignKey.make(
        **{name: value for name, value in merged.items() if name in _KEY_FIELDS}
    )
    rest = {name: value for name, value in merged.items() if name not in _KEY_FIELDS}
    return key, rest


def reads_campaign(experiment_id: str, **defaults):
    """Decorator: ``body(result, **rest)`` becomes a function of the knobs.

    The wrapped function resolves the campaign its keyword knobs name
    (:func:`reader_campaign`) and hands the :class:`CampaignArtifact` and
    the remaining knobs to ``body``.  ``defaults`` are the reader's own
    knob defaults where they differ from :meth:`CampaignKey.make`'s.
    """

    def wrap(body: Callable[..., Any]) -> Callable[..., Any]:
        if experiment_id in campaign_readers:
            raise ValueError(f"duplicate campaign reader {experiment_id!r}")
        campaign_readers[experiment_id] = defaults
        signature = inspect.signature(body)

        def read(**knobs):
            key, rest = reader_campaign(experiment_id, knobs)
            signature.bind(None, **rest)  # a misspelt knob fails before simulating
            return body(_resolve(key)[0], **rest)

        return read

    return wrap


def task_campaign_keys(task: ExperimentTask) -> tuple[CampaignKey, ...]:
    """The campaign ``task`` reads (() for an experiment that reads none)."""
    if task.experiment_id not in campaign_readers:
        return ()
    params = {k: v for k, v in task.params.items() if k != "__whole__"}
    return (reader_campaign(task.experiment_id, params)[0],)


def _execute_campaign_stage(key_fields: dict) -> dict:
    """Stage-1 task body: ensure one campaign's artifact exists.

    Runs inside a worker (or inline): resolves the campaign as *expected*
    work, so a live simulation is not counted as a dedup miss, and reports
    whether this process actually simulated.
    """
    from repro.runner import artifacts as artifact_mod

    key = CampaignKey.make(**key_fields)
    artifact, simulated = _resolve(key, expected=True)
    store = artifact_mod.active_store()
    if store is not None and not store.has(key):
        # A memo hit (e.g. a store-less run earlier in this process, or
        # a forked worker inheriting the parent memo) satisfied the call
        # without writing: stage 1's one job is to leave an artifact
        # behind for stage 2 and future runs, so persist it now.
        store.save(key, artifact)
    return {"campaign": key.asdict(), "simulated": simulated}

"""Experiment plumbing: output container, registry, task plans, campaign readers.

Every experiment is a *task plan* in one :data:`registry`: ``plan(**knobs)``
lists the independent units of work the experiment is made of (one per
replicate or sweep point), ``execute(**params)`` computes one unit, and
``merge(partials, **knobs)`` assembles the output from the partials in
task order.  There are two ways in:

* ``@register(id)`` on a whole-experiment ``run(**knobs) -> ExperimentOutput``
  makes it a one-task plan whose task params are the knobs;
* ``register_tasks(id, plan, execute, merge)`` declares a fan-out (R1's
  seeds, F6's coverages, the A3/A4/A5 sweep cells).

:func:`run_experiment` runs a plan serially: plan, execute in task order,
merge.  The parallel runner (:mod:`repro.runner`) executes the same tasks
across worker processes through :func:`plan_tasks`, :func:`execute_task`
and :func:`merge_tasks`, so both produce byte-identical output.

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

import functools
import inspect
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Optional

from repro.workloads import run_scenario
from repro.workloads.synthetic import CAMPAIGN_SEED, CampaignArtifact, CampaignKey

__all__ = [
    "ExperimentOutput",
    "ExperimentTask",
    "TaskPlan",
    "registry",
    "campaign_readers",
    "register",
    "register_tasks",
    "reads_campaign",
    "reader_campaign",
    "run_experiment",
    "plan_tasks",
    "plan_timeout",
    "execute_task",
    "merge_tasks",
    "campaign",
    "forget_campaigns",
    "task_campaign_keys",
    "CAMPAIGN_STAGE_ID",
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
    """One experiment as tasks: ``plan`` them, ``execute`` each, ``merge``.

    ``timeout`` (wall-clock seconds per task) overrides the runner-level
    ``--task-timeout`` for this experiment's tasks — long fault-injected
    campaigns legitimately need more rope than a quick table regeneration.
    ``None`` defers to the runner's default.
    """

    plan: Callable[..., list[ExperimentTask]]
    execute: Callable[..., Any]
    merge: Callable[..., ExperimentOutput]
    timeout: Optional[float] = None


#: Every experiment id's task plan.
registry: dict[str, TaskPlan] = {}


def register_tasks(
    experiment_id: str,
    plan: Callable[..., list[ExperimentTask]],
    execute: Callable[..., Any],
    merge: Callable[..., ExperimentOutput],
    timeout: Optional[float] = None,
) -> None:
    """Register ``experiment_id`` as a task plan (see module docstring)."""
    if experiment_id in registry:
        raise ValueError(f"duplicate experiment id {experiment_id!r}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"{experiment_id}: task timeout must be positive")
    registry[experiment_id] = TaskPlan(
        plan=plan, execute=execute, merge=merge, timeout=timeout
    )


def register(experiment_id: str):
    """Decorator: register a whole-experiment ``run`` as a one-task plan."""

    def wrap(run: Callable[..., ExperimentOutput]):
        register_tasks(
            experiment_id,
            plan=functools.partial(_one_task, experiment_id),
            execute=run,
            merge=_only_partial,
        )
        return run

    return wrap


def _one_task(experiment_id: str, **knobs) -> list[ExperimentTask]:
    """A whole experiment's plan: one task whose params are the knobs."""
    # The seed field is part of the cache key; when the experiment runs on
    # its internal default seed (no knob given) any stable value works —
    # the default itself is code, covered by the store's code version.
    seed = int(knobs.get("seed", CAMPAIGN_SEED))
    return [ExperimentTask(experiment_id, index=0, params=knobs, seed=seed)]


def _only_partial(partials: list, **_knobs) -> ExperimentOutput:
    (output,) = partials
    return output


def run_experiment(experiment_id: str, **knobs) -> ExperimentOutput:
    """Run one experiment serially: plan, execute in task order, merge."""
    tasks = plan_tasks(experiment_id, **knobs)
    partials = [execute_task(task) for task in tasks]
    return merge_tasks(experiment_id, partials, **knobs)


def plan_timeout(experiment_id: str) -> Optional[float]:
    """The experiment's declared per-task timeout override (None = defer)."""
    declared = registry.get(experiment_id)
    return declared.timeout if declared is not None else None


def plan_tasks(experiment_id: str, **knobs) -> list[ExperimentTask]:
    """The experiment's task list, checked for ids and contiguous indices."""
    if experiment_id not in registry:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(registry)}"
        )
    tasks = registry[experiment_id].plan(**knobs)
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
    if task.experiment_id == CAMPAIGN_STAGE_ID:
        return _execute_campaign_stage(task.params[CAMPAIGN_STAGE_ID])
    return registry[task.experiment_id].execute(**task.params)


def merge_tasks(
    experiment_id: str, partials: list, **knobs
) -> ExperimentOutput:
    """Assemble ordered partial results into the experiment's output.

    ``partials`` must be ordered by task index; merge functions are pure in
    that order, which is what makes parallel output byte-identical to
    serial output no matter how the scheduler interleaved the tasks.
    """
    return registry[experiment_id].merge(partials, **knobs)


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

        @functools.wraps(body)
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
    return (reader_campaign(task.experiment_id, task.params)[0],)


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

"""The fault-tolerant parallel runner: plan tasks, fan out, survive, merge.

Determinism contract: for a fixed experiment list and knobs, the merged
outputs are byte-identical at any ``jobs`` value.  Three properties deliver
it — every task carries its own seed (no shared RNG state), workers compute
pure partials (no global mutation crosses back), and merging consumes
partials strictly in task-index order (never completion order).

Fault-tolerance contract (the reason this module looks the way it does):

* **One executor.**  :func:`run_task_hardened` is the only code that runs
  a task: in a pool worker, inline (``jobs=1``) and in a degraded attempt
  in this process alike.  It returns a :class:`WorkerOutcome` instead of
  raising, and the runner settles every outcome the same way.
* **Transient failures are invisible in the output.**  A killed worker
  (``BrokenProcessPool``), a task that blew its wall-clock limit, or a
  wedged pool is retried under a :class:`~repro.runner.retry.RetryPolicy`
  (bounded attempts, exponential backoff, deterministic jitter).  When a
  pool task's retries are exhausted, it gets one final *degraded* attempt
  in this process — so infrastructure trouble can slow a sweep down but
  never change its bytes.  An inline task has nowhere safer to go: its
  last timeout is recorded as a failure.
* **Task exceptions are contained, never retried.**  The task's own raise
  is deterministic; it is recorded as a structured
  :class:`~repro.runner.retry.TaskFailure` and the experiment it belongs to
  renders a failure report instead of a merged table.  The sweep — and the
  CLI — always finish.
* **Pools are cattle.**  A dead pool is torn down (workers killed) and a
  fresh one built; after ``max_pool_deaths`` deaths the runner stops
  trusting pools entirely and finishes the sweep serially in-process.
* **Progress is durable.**  With a :class:`~repro.runner.journal.RunJournal`
  attached, every task start/completion/failure is fsynced to
  ``runs/<run-id>/journal.jsonl``; ``run-all --resume <run-id>`` skips
  recorded completions (values come from the result cache) and re-runs
  only pending or failed tasks.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.experiments.base import (
    CAMPAIGN_STAGE_ID,
    ExperimentOutput,
    ExperimentTask,
    execute_task,
    forget_campaigns,
    merge_tasks,
    plan_tasks,
    plan_timeout,
    task_campaign_keys,
)
from repro.runner.artifacts import (
    ArtifactStore,
    activated_store,
    record_metrics,
    stats_delta,
    stats_snapshot,
)
from repro.runner.cache import ResultCache
from repro.runner.chaos import chaos_from_env
from repro.runner.journal import RunJournal, task_key
from repro.runner.retry import (
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
    RetryPolicy,
    TaskFailure,
    TaskTimeout,
    wall_clock_limit,
)

__all__ = [
    "ParallelRunner",
    "WorkerOutcome",
    "WorkerSpec",
    "resolve_jobs",
    "run_task_hardened",
]

#: Environment override for the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Pool deaths tolerated before permanently degrading to serial execution.
MAX_POOL_DEATHS = 5

OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one hardened execution needs (picklable)."""

    task: ExperimentTask
    timeout: Optional[float]  # wall-clock seconds; None = unlimited
    attempt: int  # 1-based try number (keys the chaos draws)
    task_key: str  # stable identity for chaos/backoff derivations
    #: campaign artifact store; None = two-stage mode disabled
    store: Optional[ArtifactStore] = None
    #: trace the task's simulations and ship the sim-domain summary back
    trace_sim: bool = False
    #: campaigns no later task of the round reads: dropped from this
    #: worker's memo once the task is done
    release: tuple = ()


@dataclass(frozen=True)
class WorkerOutcome:
    """What came back: a value, a timeout, or the task's own exception."""

    status: str  # OUTCOME_OK | OUTCOME_TIMEOUT | OUTCOME_ERROR
    value: Any = None
    error_type: str = ""
    message: str = ""
    elapsed: float = 0.0
    #: wall-clock epoch when the execution started — places its span on
    #: the run timeline (telemetry only)
    started_at: float = 0.0
    #: artifact-store counter deltas from this execution (loads, load
    #: seconds, simulations, fallbacks, ...); empty = nothing happened
    artifact_stats: Optional[dict] = None
    #: deterministic sim-tracer slice of this execution (``trace_sim`` only);
    #: a pure function of the task, so identical at any ``--jobs`` value
    sim_summary: Optional[dict] = None


def run_task_hardened(spec: WorkerSpec) -> WorkerOutcome:
    """Run one attempt of a task: chaos, time limit, structured outcome.

    The only code that executes a task, in a pool worker and in the driver
    alike.  It scopes ``spec.store`` as the active store, applies the chaos
    harness (kills and hangs fire only in pool workers), enforces the
    task's wall-clock limit, and **returns** the task's exception instead
    of raising it: one crossing the pickle boundary as an exception would
    be indistinguishable from worker damage, and the driver must treat the
    two oppositely (record vs retry).  In the driver, ``KeyboardInterrupt``
    and ``SystemExit`` still escape.
    """
    started = time.monotonic()
    started_wall = time.time()
    stats_before = stats_snapshot()
    chaos = chaos_from_env()
    value = sim_summary = None
    status, error_type, message = OUTCOME_OK, "", ""
    try:
        with activated_store(spec.store), wall_clock_limit(spec.timeout):
            if chaos.active:
                # May os._exit (kill) or sleep (hang) — inside the limit, so
                # an injected hang surfaces as an ordinary task timeout.
                chaos.pre_task(spec.task_key, spec.attempt)
            if spec.trace_sim:
                from repro.obs.trace import traced_simulation

                with traced_simulation() as tracer:
                    value = execute_task(spec.task)
                # Only completed executions report: a partial trace from an
                # interrupted task would not be seed-stable.
                sim_summary = tracer.sim_summary()
            else:
                value = execute_task(spec.task)
    except TaskTimeout as exc:
        status, message = OUTCOME_TIMEOUT, str(exc)
    except BaseException as exc:  # the task's own failure: record, never retry
        if not isinstance(exc, Exception) and multiprocessing.parent_process() is None:
            raise  # Ctrl-C or an exit request stops the driver, not a task
        status, error_type, message = OUTCOME_ERROR, type(exc).__name__, str(exc)
    finally:
        forget_campaigns(spec.release)
    return WorkerOutcome(
        status=status,
        value=value,
        error_type=error_type,
        message=message,
        elapsed=time.monotonic() - started,
        started_at=started_wall,
        artifact_stats=stats_delta(stats_before),
        sim_summary=sim_summary,
    )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit value > ``REPRO_JOBS`` env > ``os.cpu_count()``; minimum 1."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


class ParallelRunner:
    """Run experiments as task fan-outs with caching and fault tolerance.

    ``jobs=1`` executes inline in this process (sharing its campaign memo
    with :func:`~repro.experiments.base.run_experiment`); ``jobs>1`` uses a
    :class:`~concurrent.futures.ProcessPoolExecutor` with crash containment.
    ``cache=None`` with ``use_cache=True`` builds the default on-disk cache;
    ``use_cache=False`` disables caching entirely.

    ``task_timeout`` is the default wall-clock limit per task (seconds);
    an experiment's :func:`~repro.experiments.base.register_tasks` override
    wins where declared.  ``retry`` bounds transient-failure retries;
    ``journal``/``resume_keys`` wire up durable progress (see module
    docstring).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
        task_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[RunJournal] = None,
        resume_keys: Iterable[str] = (),
        max_pool_deaths: int = MAX_POOL_DEATHS,
        artifacts: Optional[ArtifactStore] = None,
        telemetry=None,
        trace_sim: bool = False,
    ) -> None:
        if task_timeout is not None and not 0 < task_timeout < math.inf:
            raise ValueError("task_timeout must be positive and finite")
        self.jobs = resolve_jobs(jobs)
        self.cache: Optional[ResultCache] = (
            cache if cache is not None else (ResultCache() if use_cache else None)
        )
        self.task_timeout = task_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal = journal
        self.resume_keys = frozenset(resume_keys)
        self.max_pool_deaths = max(1, int(max_pool_deaths))
        #: campaign artifact store; None disables the two-stage task DAG
        self.artifacts = artifacts
        #: wall-domain recorder (repro.obs.telemetry.Telemetry, duck-typed);
        #: strictly off the report path — None disables every hook
        self.telemetry = telemetry
        #: trace each task's simulations (inline or in workers) and record
        #: the deterministic sim-domain summary per task in the sidecar
        self.trace_sim = bool(trace_sim) and telemetry is not None
        # -- per-runner telemetry (surfaced on stderr by the CLI) --
        self.failures: list[TaskFailure] = []
        self.degraded_tasks: list[str] = []
        self.pool_deaths = 0
        self.retries = 0
        self.resume_skipped = 0
        #: stage-1 failures (never fatal: measurement tasks fall back to
        #: live simulation, so these are logged, not merged into failures)
        self.campaign_failures: list[TaskFailure] = []
        #: campaign dedup counters: distinct keys planned, simulated this
        #: run, reused (artifact or memo), plus fallback simulations and
        #: artifact load telemetry aggregated across worker processes
        self.campaign_stats: dict = {
            "distinct": 0, "simulated": 0, "reused": 0,
            "fallbacks": 0, "loads": 0, "load_seconds": 0.0,
        }
        #: wall-clock per phase of the latest run_many (stderr-only data)
        self.stage_seconds: dict[str, float] = {}

    # -- public API ----------------------------------------------------------
    def run(self, experiment_id: str, **knobs) -> ExperimentOutput:
        """Run one experiment (its tasks still fan out across workers)."""
        return self.run_many([(experiment_id, knobs)])[0]

    def run_many(
        self, requests: Sequence[tuple[str, dict]]
    ) -> list[ExperimentOutput]:
        """Run ``[(experiment_id, knobs), ...]``; outputs in request order.

        Experiments whose tasks recorded a :class:`TaskFailure` render a
        failure report in place of their merged output — one broken
        experiment never aborts the rest of the sweep.

        With an :class:`ArtifactStore` attached, execution is a two-stage
        DAG: the distinct campaigns the planned tasks depend on are
        simulated exactly once each (stage 1, parallel across campaigns),
        then the measurement tasks fan out over the stored artifacts
        (stage 2).  Every execution, wherever it runs, resolves campaigns
        through the store its :class:`WorkerSpec` carries.
        """
        started = time.monotonic()
        wall_started = time.time()
        plans: list[list[ExperimentTask]] = [
            plan_tasks(experiment_id, **knobs) for experiment_id, knobs in requests
        ]
        self.stage_seconds["plan"] = time.monotonic() - started
        self._tel_span(
            "stage:plan", wall_started, self.stage_seconds["plan"],
            tasks=sum(len(tasks) for tasks in plans),
        )
        partials = self._execute([task for tasks in plans for task in tasks])
        if self.telemetry is not None:
            self.telemetry.finish(self)

        outputs = []
        cursor = 0
        for (experiment_id, knobs), tasks in zip(requests, plans):
            chunk = partials[cursor : cursor + len(tasks)]
            cursor += len(tasks)
            if any(isinstance(partial, TaskFailure) for partial in chunk):
                outputs.append(self._failure_output(experiment_id, chunk))
            else:
                outputs.append(merge_tasks(experiment_id, chunk, **knobs))
        return outputs

    @property
    def cache_stats(self):
        return self.cache.stats if self.cache is not None else None

    # -- execution -----------------------------------------------------------
    def _execute(self, tasks: Iterable[ExperimentTask]) -> list:
        tasks = list(tasks)
        sink: dict[int, object] = {}
        pending: list[tuple[int, ExperimentTask]] = []
        for position, task in enumerate(tasks):
            key = self._key(task)
            if self.cache is not None:
                hit, value = self.cache.get(
                    task.experiment_id, task.params, task.seed
                )
                if hit:
                    sink[position] = value
                    resumed = key in self.resume_keys
                    if resumed:
                        self.resume_skipped += 1
                    self._tel_event(
                        "cache-hit", key=key,
                        experiment=task.experiment_id, resumed=resumed,
                    )
                    self._tel_count("runner.cache_hits")
                    self._journal(
                        "task-completed", task, key,
                        attempts=0, cached=True, resumed=resumed,
                    )
                    continue
            pending.append((position, task))

        if pending and self.artifacts is not None:
            started = time.monotonic()
            wall_started = time.time()
            self._campaign_stage(pending)
            self.stage_seconds["campaign"] = time.monotonic() - started
            self._tel_span(
                "stage:campaign", wall_started, self.stage_seconds["campaign"]
            )

        if pending:
            started = time.monotonic()
            wall_started = time.time()
            self._run(pending, sink)
            self.stage_seconds["measure"] = time.monotonic() - started
            self._tel_span(
                "stage:measure", wall_started, self.stage_seconds["measure"],
                tasks=len(pending),
            )
        return [sink[position] for position in range(len(tasks))]

    # -- stage 1: the campaign tasks ------------------------------------------
    def _campaign_stage(self, pending: Sequence[tuple[int, ExperimentTask]]) -> None:
        """Simulate each distinct campaign the pending tasks need, once.

        The distinct :class:`CampaignKey` set comes from the tasks' knobs
        (:func:`~repro.experiments.base.task_campaign_keys`).
        Keys whose artifact already exists are *reused*; the rest become
        synthetic ``__campaign__`` tasks run through the same
        executor and retries as any other task (parallel across
        campaigns).  Stage-1 failures are contained separately — a
        measurement task whose campaign is missing falls back to a live
        simulation in its own worker, so stage 1 can only cost time, never
        change bytes.
        """
        keys: list = []
        for _position, task in pending:
            for key in task_campaign_keys(task):
                if key not in keys:
                    keys.append(key)
        if not keys:
            return
        self.campaign_stats["distinct"] += len(keys)

        todo = []
        for key in keys:
            if self.artifacts.has(key):
                self.campaign_stats["reused"] += 1
                self._tel_event("campaign-dedup", campaign=key.asdict())
                self._tel_count("runner.campaigns_reused")
            else:
                todo.append(key)
        if not todo:
            return

        stage_tasks = [
            ExperimentTask(
                experiment_id=CAMPAIGN_STAGE_ID,
                index=index,
                params={CAMPAIGN_STAGE_ID: key.asdict()},
                seed=key.seed,
            )
            for index, key in enumerate(todo)
        ]
        stage_sink: dict[int, object] = {}
        failures_before = len(self.failures)
        self._run(list(enumerate(stage_tasks)), stage_sink)
        # Stage-1 failures are advisory (fallback keeps the sweep correct).
        self.campaign_failures.extend(self.failures[failures_before:])
        del self.failures[failures_before:]
        for value in stage_sink.values():
            if isinstance(value, dict) and value.get("simulated"):
                self.campaign_stats["simulated"] += 1
                self._tel_count("runner.campaigns_simulated")
            elif isinstance(value, dict):
                self.campaign_stats["reused"] += 1
                self._tel_count("runner.campaigns_reused")

    # -- running tasks ---------------------------------------------------------
    def _run(self, pending: Sequence[tuple[int, ExperimentTask]], sink: dict) -> None:
        """Run ``pending`` to completion, in rounds.

        A round runs every queued attempt, in this process at ``jobs=1`` or
        across a pool; the transient failures it returns go round again
        after one deterministic backoff.
        """
        queue = [(position, task, 1) for position, task in pending]
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while queue:
                requeue: list[tuple[int, ExperimentTask, int]] = []
                if self.jobs == 1:
                    for position, task, attempt in queue:
                        self._run_here(
                            position, task, attempt, "inline", requeue, sink
                        )
                elif self.pool_deaths >= self.max_pool_deaths:
                    # The pool machinery has proven itself untrustworthy on
                    # this host; finish the sweep serially in-process.
                    for position, task, attempt in queue:
                        self._degrade(position, task, attempt, sink)
                else:
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=self.jobs)
                    requeue = self._run_round(pool, queue, sink)
                    if self._pool_broken:
                        self._kill_pool(pool)
                        pool = None
                        self.pool_deaths += 1
                        self._tel_event("pool-death", count=self.pool_deaths)
                        self._tel_count("runner.pool_deaths")
                if requeue:
                    self.retries += len(requeue)
                    # One deterministic backoff per round: the longest of the
                    # requeued tasks' jittered delays.
                    time.sleep(
                        max(
                            self.retry.delay(self._key(task), attempt)
                            for _position, task, attempt in requeue
                        )
                    )
                queue = [
                    (position, task, attempt + 1)
                    for position, task, attempt in requeue
                ]
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _spec(
        self, task: ExperimentTask, key: str, attempt: int, release: tuple = ()
    ) -> WorkerSpec:
        return WorkerSpec(
            task=task,
            timeout=self._timeout_for(task),
            attempt=attempt,
            task_key=key,
            store=self.artifacts,
            trace_sim=self.trace_sim,
            release=release,
        )

    def _run_here(self, position, task, attempt, mode, requeue, sink) -> None:
        """One attempt in this process, by the pool workers' own code.

        Chaos kills and hangs are gated to pool workers and a worker crash
        cannot take this process down, so only the task's own raise or its
        time limit can fail it here.  No campaign is released: this
        process's memo belongs to whoever called the runner.
        """
        key = self._key(task)
        self._journal("task-started", task, key, attempt=attempt, mode=mode)
        outcome = run_task_hardened(self._spec(task, key, attempt))
        self._settle(position, task, attempt, outcome, mode, requeue, sink)

    def _degrade(self, position, task, attempt, sink, kind="") -> None:
        """Last resort for a pool task: one attempt here, never retried."""
        key = self._key(task)
        self.degraded_tasks.append(key)
        self._tel_event("degraded", key=key, kind=kind, attempt=attempt)
        self._tel_count("runner.degraded")
        self._run_here(position, task, attempt, "degraded", None, sink)

    def _run_round(
        self,
        pool: ProcessPoolExecutor,
        batch: Sequence[tuple[int, ExperimentTask, int]],
        sink: dict,
    ) -> list[tuple[int, ExperimentTask, int]]:
        """Submit the batch; collect until done or the pool breaks.

        Returns the transient failures to retry.  Sets ``self._pool_broken``
        when the pool must be killed and rebuilt.
        """
        self._pool_broken = False
        batch = list(batch)
        # With a store, a worker releases each campaign after the batch's
        # last task that reads it; a later reader would load it again.
        last_reader = {}
        if self.artifacts is not None:
            for batch_index, (_position, task, _attempt) in enumerate(batch):
                for campaign_key in task_campaign_keys(task):
                    last_reader[campaign_key] = batch_index
        future_map = {}
        requeue: list[tuple[int, ExperimentTask, int]] = []
        for batch_index, (position, task, attempt) in enumerate(batch):
            key = self._key(task)
            self._journal("task-started", task, key, attempt=attempt, mode="pool")
            spec = self._spec(
                task, key, attempt,
                release=tuple(
                    campaign_key
                    for campaign_key, last in last_reader.items()
                    if last == batch_index
                ),
            )
            try:
                future = pool.submit(run_task_hardened, spec)
            except Exception as exc:
                # A worker can die *while the batch is being submitted*, at
                # which point submit itself raises BrokenProcessPool.  Treat
                # the unsubmitted remainder as crash victims; the futures
                # already in flight surface the same breakage below.
                self._pool_broken = True
                self._note_transient(
                    batch[batch_index:], requeue, sink, FAILURE_WORKER_CRASH,
                    f"worker pool broke during submission: "
                    f"{type(exc).__name__}: {exc}",
                )
                break
            future_map[future] = (position, task, attempt)

        outstanding = set(future_map)
        while outstanding:
            done, _not_done = wait(
                outstanding,
                timeout=self._watchdog(future_map, outstanding),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # Driver-side watchdog: nothing finished in far longer than
                # any task limit — a worker is wedged beyond SIGALRM's reach
                # (stuck C code).  Kill the pool; retry everything in flight.
                self._pool_broken = True
                self._note_transient(
                    (future_map[f] for f in outstanding),
                    requeue, sink, FAILURE_TIMEOUT,
                    "pool watchdog expired (wedged worker)",
                )
                return requeue
            for future in done:
                outstanding.discard(future)
                position, task, attempt = future_map[future]
                try:
                    outcome = future.result()
                except Exception as exc:  # includes BrokenProcessPool
                    # A raising future is always infrastructure damage (task
                    # exceptions come back *inside* a WorkerOutcome): every
                    # future still in flight on this pool is suspect too.
                    self._pool_broken = True
                    victims = [(position, task, attempt)] + [
                        future_map[f] for f in outstanding
                    ]
                    self._note_transient(
                        victims, requeue, sink, FAILURE_WORKER_CRASH,
                        f"worker pool broke: {type(exc).__name__}: {exc}",
                    )
                    return requeue
                self._settle(position, task, attempt, outcome, "pool", requeue, sink)
        return requeue

    def _settle(self, position, task, attempt, outcome, mode, requeue, sink) -> None:
        """Fold one attempt's outcome in, wherever it ran (``mode``)."""
        key = self._key(task)
        self._absorb_artifact_stats(outcome.artifact_stats)
        self._tel_span(
            "task", outcome.started_at, outcome.elapsed,
            key=key, experiment=task.experiment_id, mode=mode,
            attempt=attempt, status=outcome.status,
        )
        if outcome.status == OUTCOME_OK:
            self._tel_sim_summary(key, outcome.sim_summary)
            value = outcome.value
        elif outcome.status == OUTCOME_ERROR:  # contained, never retried
            value = self._failure(
                task, FAILURE_EXCEPTION, attempt,
                error_type=outcome.error_type, message=outcome.message,
            )
        elif mode != "degraded":  # a timeout: transient
            self._note_transient(
                [(position, task, attempt)], requeue, sink,
                FAILURE_TIMEOUT, outcome.message, mode,
            )
            return
        else:  # a degraded attempt is never retried
            value = self._failure(
                task, FAILURE_TIMEOUT, attempt, message=outcome.message
            )
        self._complete(
            position, task, key, value, attempts=attempt, sink=sink,
            degraded=mode == "degraded",
        )

    def _note_transient(
        self, entries, requeue, sink, kind, message, mode="pool"
    ) -> None:
        """Route transient failures: retry if budget remains; else degrade a
        pool task, or record an inline one as failed."""
        for position, task, attempt in entries:
            key = self._key(task)
            if kind == FAILURE_TIMEOUT:
                self._tel_event("timeout", key=key, attempt=attempt, mode=mode)
            if self.retry.should_retry(kind, attempt):
                self._tel_event("retry", key=key, kind=kind, attempt=attempt)
                self._tel_count("runner.retries")
                requeue.append((position, task, attempt))
            elif mode == "pool":
                self._degrade(position, task, attempt + 1, sink, kind)
            else:
                value = self._failure(task, kind, attempt, message=message)
                self._complete(position, task, key, value, attempts=attempt, sink=sink)

    # -- shared bookkeeping -----------------------------------------------------
    def _complete(
        self, position, task, key, value, attempts, sink, degraded=False
    ) -> None:
        """Record one task's final value (result or failure) everywhere.

        Runs at completion time — not at sweep end — so the cache and the
        journal always reflect finished work even if this process is
        SIGKILLed a moment later; that is what makes ``--resume`` re-run
        only incomplete tasks.
        """
        sink[position] = value
        self._tel_count("runner.tasks_completed")
        if isinstance(value, TaskFailure):
            self.failures.append(value)
            self._tel_count("runner.tasks_failed")
            self._journal(
                "task-failed", task, key,
                attempts=attempts, kind=value.kind,
                error_type=value.error_type, message=value.message,
                degraded=degraded,
            )
            return
        if self.cache is not None and task.experiment_id != CAMPAIGN_STAGE_ID:
            # Campaign tasks persist through the artifact store, not the
            # result cache — caching their marker dict would mask the
            # store-miss signal a resumed run relies on.
            self.cache.put(task.experiment_id, task.params, task.seed, value)
        self._journal(
            "task-completed", task, key,
            attempts=attempts, cached=False, resumed=False, degraded=degraded,
        )

    def _failure(
        self, task, kind, attempts, error_type="", message=""
    ) -> TaskFailure:
        return TaskFailure(
            experiment_id=task.experiment_id,
            index=task.index,
            seed=task.seed,
            kind=kind,
            error_type=error_type,
            message=message,
            attempts=attempts,
        )

    def _failure_output(self, experiment_id, partials) -> ExperimentOutput:
        failures = [p for p in partials if isinstance(p, TaskFailure)]
        lines = [
            f"!! {len(failures)} of {len(partials)} task(s) failed; "
            "output unavailable"
        ]
        lines += [f"   {failure.describe()}" for failure in failures]
        return ExperimentOutput(
            experiment_id=experiment_id,
            title="FAILED",
            text="\n".join(lines),
            data={"failures": [asdict(failure) for failure in failures]},
        )

    def _absorb_artifact_stats(self, delta: Optional[dict]) -> None:
        """Fold one execution's artifact-store counter delta into telemetry.

        Every execution, in a pool worker or in this process, reports its
        own delta inside its :class:`WorkerOutcome`.
        """
        if not delta:
            return
        self.campaign_stats["fallbacks"] += delta.get("fallbacks", 0)
        self.campaign_stats["loads"] += delta.get("loads", 0)
        self.campaign_stats["load_seconds"] += delta.get("load_seconds", 0.0)
        if self.telemetry is not None:
            record_metrics(self.telemetry.metrics, delta)

    # -- telemetry hooks (no-ops without a recorder attached) -------------------
    def _tel_event(self, name: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.event(name, **fields)

    def _tel_span(self, name: str, start: float, duration: float, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.add_span(name, start, duration, **fields)

    def _tel_count(self, name: str, amount: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).inc(amount)

    def _tel_sim_summary(self, key: str, summary: Optional[dict]) -> None:
        if self.telemetry is not None and summary:
            self.telemetry.add_task_sim_summary(key, summary)

    def _key(self, task: ExperimentTask) -> str:
        return task_key(task.experiment_id, task.params, task.seed)

    def _timeout_for(self, task: ExperimentTask) -> Optional[float]:
        declared = plan_timeout(task.experiment_id)
        return declared if declared is not None else self.task_timeout

    def _watchdog(self, future_map, outstanding) -> Optional[float]:
        """Driver-side guard: how long to wait for *any* completion.

        Generously above the largest worker-side limit in flight, so it only
        fires when SIGALRM could not interrupt the task.  ``None`` (wait
        forever) when no task in flight has a limit.
        """
        limits = [
            self._timeout_for(future_map[future][1]) for future in outstanding
        ]
        if any(limit is None for limit in limits) or not limits:
            return None
        longest = max(limits)
        return longest + max(15.0, 0.5 * longest)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a broken/wedged pool: SIGKILL workers, then shut down."""
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already-dead races
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _journal(self, event: str, task: ExperimentTask, key: str, **fields) -> None:
        if self.journal is None:
            return
        if task.experiment_id == CAMPAIGN_STAGE_ID:
            # Campaign pseudo-tasks are not journaled: their durable record
            # is the artifact itself (resume re-skips via ``store.has``),
            # and journal completions must mean "servable from the result
            # cache" for the resume skip-set to stay truthful.
            return
        self.journal.record(
            event,
            key=key,
            experiment_id=task.experiment_id,
            index=task.index,
            seed=task.seed,
            **fields,
        )

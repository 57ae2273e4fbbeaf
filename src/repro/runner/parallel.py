"""The fault-tolerant parallel runner: plan tasks, fan out, survive, merge.

Determinism contract: for a fixed experiment list and knobs, the merged
outputs are byte-identical at any ``jobs`` value.  Three properties deliver
it — every task carries its own seed (no shared RNG state), workers compute
pure partials (no global mutation crosses back), and merging consumes
partials strictly in task-index order (never completion order).

Fault-tolerance contract (the reason this module looks the way it does):

* **Transient failures are invisible in the output.**  A killed worker
  (``BrokenProcessPool``), a task that blew its wall-clock limit, or a
  wedged pool is retried under a :class:`~repro.runner.retry.RetryPolicy`
  (bounded attempts, exponential backoff, deterministic jitter).  When the
  retries are exhausted, the task gets one final *degraded* attempt inline
  in this process — so infrastructure trouble can slow a sweep down but
  never change its bytes.
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

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict
from typing import Iterable, Optional, Sequence

from repro.experiments.base import (
    CAMPAIGN_STAGE_ID,
    ExperimentOutput,
    ExperimentTask,
    execute_task,
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
from repro.runner.cache import CacheStats, ResultCache
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
from repro.runner.worker import (
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    WorkerSpec,
    run_task_hardened,
)

__all__ = ["ParallelRunner", "resolve_jobs"]

#: Environment override for the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Pool deaths tolerated before permanently degrading to serial execution.
MAX_POOL_DEATHS = 5


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

    ``jobs=1`` executes inline in this process (sharing the in-process
    campaign memo exactly like the classic serial path); ``jobs>1`` uses a
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
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
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
        if self.telemetry is not None and self.cache is not None:
            # Re-home the cache counters onto the run-wide registry so the
            # sidecar's metrics snapshot includes ``cache.*`` (any values
            # already accumulated carry over).
            stats = self.cache.stats
            self.cache.stats = CacheStats(
                hits=stats.hits,
                misses=stats.misses,
                writes=stats.writes,
                quarantined=stats.quarantined,
                metrics=self.telemetry.metrics,
            )
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
        (stage 2).  The store stays active in this process too, so inline
        and degraded executions resolve campaigns identically to workers.
        """
        stats_before = stats_snapshot()
        with activated_store(self.artifacts):
            started = time.monotonic()
            wall_started = time.time()
            plans: list[list[ExperimentTask]] = [
                plan_tasks(experiment_id, **knobs)
                for experiment_id, knobs in requests
            ]
            self.stage_seconds["plan"] = time.monotonic() - started
            self._tel_span(
                "stage:plan", wall_started, self.stage_seconds["plan"],
                tasks=sum(len(tasks) for tasks in plans),
            )
            all_tasks = [task for tasks in plans for task in tasks]
            partials = self._execute(all_tasks)
        self._absorb_artifact_stats(stats_delta(stats_before))
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
            if self.jobs == 1:
                for position, task in pending:
                    self._run_inline(position, task, sink)
            else:
                self._run_pool(pending, sink)
            self.stage_seconds["measure"] = time.monotonic() - started
            self._tel_span(
                "stage:measure", wall_started, self.stage_seconds["measure"],
                tasks=len(pending),
            )
        return [sink[position] for position in range(len(tasks))]

    # -- stage 1: the campaign tasks ------------------------------------------
    def _campaign_stage(self, pending: Sequence[tuple[int, ExperimentTask]]) -> None:
        """Simulate each distinct campaign the pending tasks need, once.

        The distinct :class:`CampaignKey` set comes from the experiments'
        :func:`~repro.experiments.base.register_campaigns` declarations.
        Keys whose artifact already exists are *reused*; the rest become
        synthetic ``__campaign__`` tasks run through the same
        inline/pool/retry machinery as any other task (parallel across
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
        entries = list(enumerate(stage_tasks))
        if self.jobs == 1:
            for position, task in entries:
                self._run_inline(position, task, stage_sink)
        else:
            self._run_pool(entries, stage_sink)
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

    # -- inline (jobs=1) path -------------------------------------------------
    def _run_inline(self, position: int, task: ExperimentTask, sink: dict) -> None:
        """Serial execution with the same containment guarantees as the pool.

        Worker crashes cannot happen here; timeouts are enforced with the
        shared alarm-based limit and retried under the policy (wall-clock
        overruns can be environmental), task exceptions are recorded.
        """
        key = self._key(task)
        timeout = self._timeout_for(task)
        attempt = 0
        while True:
            attempt += 1
            self._journal("task-started", task, key, attempt=attempt, mode="inline")
            wall_started = time.time()
            try:
                with wall_clock_limit(timeout):
                    value = self._execute_traced(task, key)
            except TaskTimeout as exc:
                self._tel_event(
                    "timeout", key=key, attempt=attempt, mode="inline"
                )
                if self.retry.should_retry(FAILURE_TIMEOUT, attempt):
                    self.retries += 1
                    self._tel_event(
                        "retry", key=key, kind=FAILURE_TIMEOUT, attempt=attempt
                    )
                    self._tel_count("runner.retries")
                    time.sleep(self.retry.delay(key, attempt))
                    continue
                value = self._failure(task, FAILURE_TIMEOUT, attempt, message=str(exc))
            except Exception as exc:
                value = self._failure(
                    task, FAILURE_EXCEPTION, attempt,
                    error_type=type(exc).__name__, message=str(exc),
                )
            self._tel_span(
                "task", wall_started, time.time() - wall_started,
                key=key, experiment=task.experiment_id, mode="inline",
                attempt=attempt,
                status="failed" if isinstance(value, TaskFailure) else "ok",
            )
            self._complete(position, task, key, value, attempts=attempt, sink=sink)
            return

    def _execute_traced(self, task: ExperimentTask, key: str):
        """Execute in-process, recording the sim slice when tracing is on.

        Mirrors the worker-side ``trace_sim`` path: a fresh tracer per
        execution, and only completed executions report (a partial trace
        from a timeout would not be seed-stable).
        """
        if not self.trace_sim:
            return execute_task(task)
        from repro.obs.trace import traced_simulation

        with traced_simulation() as tracer:
            value = execute_task(task)
        self._tel_sim_summary(key, tracer.sim_summary())
        return value

    # -- pool path -------------------------------------------------------------
    def _run_pool(
        self, pending: Sequence[tuple[int, ExperimentTask]], sink: dict
    ) -> None:
        queue: deque[tuple[int, ExperimentTask, int]] = deque(
            (position, task, 1) for position, task in pending
        )
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while queue:
                if self.pool_deaths >= self.max_pool_deaths:
                    # The pool machinery has proven itself untrustworthy on
                    # this host; finish the sweep serially in-process.
                    while queue:
                        position, task, attempt = queue.popleft()
                        self._degrade(position, task, attempt, sink)
                    break
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
                    queue.extend(
                        (position, task, attempt + 1)
                        for position, task, attempt in requeue
                    )
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _run_round(
        self,
        pool: ProcessPoolExecutor,
        queue: deque,
        sink: dict,
    ) -> list[tuple[int, ExperimentTask, int]]:
        """Submit everything queued; collect until done or the pool breaks.

        Returns the transient failures to retry.  Sets ``self._pool_broken``
        when the pool must be killed and rebuilt.
        """
        self._pool_broken = False
        batch = list(queue)
        queue.clear()
        future_map = {}
        requeue: list[tuple[int, ExperimentTask, int]] = []
        for batch_index, (position, task, attempt) in enumerate(batch):
            key = self._key(task)
            self._journal("task-started", task, key, attempt=attempt, mode="pool")
            spec = WorkerSpec(
                task=task,
                timeout=self._timeout_for(task),
                attempt=attempt,
                task_key=key,
                artifact_dir=(
                    str(self.artifacts.root)
                    if self.artifacts is not None
                    else None
                ),
                trace_sim=self.trace_sim,
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
                self._absorb_outcome(
                    position, task, attempt, outcome, requeue, sink
                )
        return requeue

    def _absorb_outcome(
        self, position, task, attempt, outcome, requeue, sink
    ) -> None:
        key = self._key(task)
        self._absorb_artifact_stats(getattr(outcome, "artifact_stats", None))
        if getattr(outcome, "started_at", 0.0):
            self._tel_span(
                "task", outcome.started_at, outcome.elapsed,
                key=key, experiment=task.experiment_id, mode="pool",
                attempt=attempt, status=outcome.status,
            )
        if outcome.status == OUTCOME_OK:
            self._tel_sim_summary(key, getattr(outcome, "sim_summary", None))
            self._complete(position, task, key, outcome.value,
                           attempts=attempt, sink=sink)
        elif outcome.status == OUTCOME_TIMEOUT:
            self._note_transient(
                [(position, task, attempt)], requeue, sink,
                FAILURE_TIMEOUT, outcome.message,
            )
        else:  # the task's own exception: contained, never retried
            value = self._failure(
                task, FAILURE_EXCEPTION, attempt,
                error_type=outcome.error_type, message=outcome.message,
            )
            self._complete(position, task, key, value, attempts=attempt, sink=sink)

    def _note_transient(self, entries, requeue, sink, kind, message) -> None:
        """Route transient failures: retry if budget remains, else degrade."""
        for position, task, attempt in entries:
            if kind == FAILURE_TIMEOUT:
                self._tel_event(
                    "timeout", key=self._key(task), attempt=attempt, mode="pool"
                )
            if self.retry.should_retry(kind, attempt):
                self._tel_event(
                    "retry", key=self._key(task), kind=kind, attempt=attempt
                )
                self._tel_count("runner.retries")
                requeue.append((position, task, attempt))
            else:
                self._degrade(
                    position, task, attempt + 1, sink, kind=kind, message=message
                )

    def _degrade(
        self, position, task, attempt, sink, kind=None, message=""
    ) -> None:
        """Last resort: run the task inline, immune to worker trouble.

        Chaos kill/hang injections are gated to child processes, and a
        worker crash cannot take this process down — so degraded execution
        completes the sweep with byte-identical results whenever the task
        itself is healthy.  Only a genuine in-task raise or an inline
        timeout still produces a :class:`TaskFailure`.
        """
        key = self._key(task)
        self.degraded_tasks.append(key)
        self._tel_event("degraded", key=key, kind=kind or "", attempt=attempt)
        self._tel_count("runner.degraded")
        self._journal("task-started", task, key, attempt=attempt, mode="degraded")
        wall_started = time.time()
        try:
            with wall_clock_limit(self._timeout_for(task)):
                value = self._execute_traced(task, key)
        except TaskTimeout as exc:
            value = self._failure(task, FAILURE_TIMEOUT, attempt, message=str(exc))
        except Exception as exc:
            value = self._failure(
                task, FAILURE_EXCEPTION, attempt,
                error_type=type(exc).__name__, message=str(exc),
            )
        self._tel_span(
            "task", wall_started, time.time() - wall_started,
            key=key, experiment=task.experiment_id, mode="degraded",
            attempt=attempt,
            status="failed" if isinstance(value, TaskFailure) else "ok",
        )
        self._complete(
            position, task, key, value, attempts=attempt, sink=sink, degraded=True
        )

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
        """Fold one process's artifact-store counter delta into telemetry.

        Driver-side activity (inline/degraded executions) arrives as one
        delta at the end of ``run_many``; every pool execution sends its
        own delta back inside the :class:`WorkerOutcome`.
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

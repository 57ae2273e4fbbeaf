"""Parallel experiment execution: fault-tolerant fan-out plus result caching.

The runner treats every experiment as the list of independent tasks its
registered plan returns (:data:`repro.experiments.base.registry`) and
executes them either inline (``jobs=1``) or across a
:class:`concurrent.futures.ProcessPoolExecutor`, each attempt through
:func:`repro.runner.parallel.run_task_hardened`.  Partial results are merged
in task-index order, so the assembled output is byte-identical regardless of
worker count or scheduling order.  One checksummed on-disk store
(:mod:`repro.runner.cache`) holds two namespaces under one root: task
results (:class:`ResultCache`, keyed by ``(experiment, params-hash, seed)``
within a code version), so re-running a sweep recomputes only what changed,
and campaign artifacts (:class:`ArtifactStore`).

With an :class:`ArtifactStore` attached, execution becomes a two-stage task
DAG: the distinct campaigns the planned tasks read (their experiments'
:func:`repro.experiments.base.reads_campaign` knobs) are simulated exactly
once each into :class:`CampaignArtifact` snapshots, and the measurement
tasks then fan out over the stored artifacts instead of re-simulating per
task — see :mod:`repro.runner.artifacts`.

Fault tolerance (see :mod:`repro.runner.parallel` for the full contract):
transient infrastructure failures — killed workers, wall-clock timeouts,
wedged pools — are retried with deterministic backoff and ultimately
degraded to in-process execution, so they never change the output bytes;
task exceptions are contained as structured :class:`TaskFailure` records; a
:class:`RunJournal` makes interrupted sweeps resumable; and the
:mod:`repro.runner.chaos` harness (``REPRO_CHAOS=kill:p,hang:p,corrupt:p``)
injects exactly these failures to prove it.
"""

from repro.runner.artifacts import ArtifactStats, ArtifactStore
from repro.runner.cache import CacheStats, ResultCache, code_version, default_cache_dir
from repro.runner.chaos import ChaosConfig, chaos_from_env
from repro.runner.journal import RunJournal, default_runs_dir, new_run_id, task_key
from repro.runner.parallel import ParallelRunner, resolve_jobs
from repro.runner.retry import RetryPolicy, TaskFailure

__all__ = [
    "ArtifactStats",
    "ArtifactStore",
    "CacheStats",
    "ChaosConfig",
    "ParallelRunner",
    "ResultCache",
    "RetryPolicy",
    "RunJournal",
    "TaskFailure",
    "chaos_from_env",
    "code_version",
    "default_cache_dir",
    "default_runs_dir",
    "new_run_id",
    "resolve_jobs",
    "task_key",
]

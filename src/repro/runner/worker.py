"""The functions that run inside pool workers.

Kept in its own module so only plain data crosses the pickle boundary: the
worker re-imports the experiment registry on its side and dispatches by id,
which works under both fork and spawn start methods.

:func:`run_task_hardened` is the fault-tolerant entry point: it applies the
chaos harness (when ``REPRO_CHAOS`` is set), enforces the task's wall-clock
limit with a worker-side alarm, and **returns** structured outcomes instead
of raising — a task exception crossing the pickle boundary as an exception
would be indistinguishable from worker damage, and the parent must treat
the two oppositely (record vs retry).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional

from repro.runner.retry import TaskTimeout, wall_clock_limit

__all__ = ["run_task", "run_task_hardened", "WorkerSpec", "WorkerOutcome"]

OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one hardened execution needs (plain picklable data)."""

    task: Any  # ExperimentTask
    timeout: Optional[float]  # wall-clock seconds; None = unlimited
    attempt: int  # 1-based try number (keys the chaos draws)
    task_key: str  # stable identity for chaos/backoff derivations
    #: campaign artifact store root; None = two-stage mode disabled
    artifact_dir: Optional[str] = None
    #: trace the task's simulations and ship the sim-domain summary back
    trace_sim: bool = False


@dataclass(frozen=True)
class WorkerOutcome:
    """What came back: a value, a timeout, or the task's own exception."""

    status: str  # OUTCOME_OK | OUTCOME_TIMEOUT | OUTCOME_ERROR
    value: Any = None
    error_type: str = ""
    message: str = ""
    traceback: str = ""
    elapsed: float = 0.0
    #: wall-clock epoch when the worker picked the task up — lets the driver
    #: place this execution's span on the run timeline (telemetry only)
    started_at: float = 0.0
    #: artifact-store counter deltas from this execution (loads, load
    #: seconds, simulations, fallbacks, ...); empty/None = nothing happened
    artifact_stats: Optional[dict] = None
    #: deterministic sim-tracer slice of this execution (``trace_sim`` only);
    #: a pure function of the task, so identical at any ``--jobs`` value
    sim_summary: Optional[dict] = None


def run_task(task) -> Any:
    """Execute one task and return its picklable partial result."""
    # Importing the package (not just base) triggers experiment registration.
    import repro.experiments  # noqa: F401
    from repro.experiments.base import execute_task

    return execute_task(task)


def run_task_hardened(spec: WorkerSpec) -> WorkerOutcome:
    """Chaos-aware, timeout-limited execution with structured outcomes."""
    from repro.runner import artifacts as artifact_mod
    from repro.runner.chaos import chaos_from_env

    started = time.monotonic()
    started_wall = time.time()
    chaos = chaos_from_env()
    if spec.artifact_dir is not None:
        # Activate (or reuse) this process's artifact store so campaign()
        # resolves through it; the store and its deserialization memo
        # persist for the life of the worker.
        artifact_mod.ensure_active_store(spec.artifact_dir)
    stats_before = artifact_mod.stats_snapshot()
    sim_summary = None
    try:
        with wall_clock_limit(spec.timeout):
            if chaos.active:
                # May os._exit (kill) or sleep (hang) — inside the limit, so
                # an injected hang surfaces as an ordinary task timeout.
                chaos.pre_task(spec.task_key, spec.attempt)
            if spec.trace_sim:
                from repro.obs.trace import traced_simulation

                with traced_simulation() as tracer:
                    value = run_task(spec.task)
                # Only completed executions report: a partial trace from an
                # interrupted task would not be seed-stable.
                sim_summary = tracer.sim_summary()
            else:
                value = run_task(spec.task)
    except TaskTimeout as exc:
        return WorkerOutcome(
            status=OUTCOME_TIMEOUT,
            message=str(exc),
            elapsed=time.monotonic() - started,
            started_at=started_wall,
            artifact_stats=artifact_mod.stats_delta(stats_before),
        )
    except BaseException as exc:  # the task's own failure: record, never retry
        return WorkerOutcome(
            status=OUTCOME_ERROR,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
            elapsed=time.monotonic() - started,
            started_at=started_wall,
            artifact_stats=artifact_mod.stats_delta(stats_before),
        )
    return WorkerOutcome(
        status=OUTCOME_OK,
        value=value,
        elapsed=time.monotonic() - started,
        started_at=started_wall,
        artifact_stats=artifact_mod.stats_delta(stats_before),
        sim_summary=sim_summary,
    )

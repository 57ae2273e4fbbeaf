"""The job model: lifecycle, attributes and ground-truth labels.

A :class:`Job` carries two kinds of information:

* **Observable** fields — everything a real accounting system would see:
  identifiers, sizes, timestamps, final state, and the *attribute* dict that
  the paper's instrumentation proposal adds to usage records (submission
  interface, gateway user, ensemble/workflow/co-allocation identifiers,
  interactive flag).
* **Ground truth** — ``true_modality`` and ``true_user``: the behaviour that
  actually generated the job.  These exist only because this is a simulation;
  they are *never* copied into usage records and are used solely to score the
  measurement system (see :mod:`repro.core.classifier`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Job", "JobState", "SubmissionInterface", "AttributeKeys"]


class JobState(enum.Enum):
    """Lifecycle states of a batch job."""

    CREATED = "created"
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"  # application error; ended early
    KILLED_WALLTIME = "killed_walltime"  # hit its requested walltime
    CANCELLED = "cancelled"  # removed by the user before/while running

    @property
    def is_terminal(self) -> bool:
        return self in (
            JobState.COMPLETED,
            JobState.FAILED,
            JobState.KILLED_WALLTIME,
            JobState.CANCELLED,
        )


class SubmissionInterface(enum.Enum):
    """How the job reached the batch system (an observable job attribute)."""

    LOGIN = "login"  # direct login-node CLI submission
    GRAM = "gram"  # grid middleware remote submission
    GATEWAY = "gateway"  # web science-gateway portal


class AttributeKeys:
    """Well-known keys of the observable job-attribute dict.

    These correspond to the attributes the paper proposes attaching to
    accounting records so modalities become measurable.
    """

    SUBMIT_INTERFACE = "submit_interface"  # SubmissionInterface value
    GATEWAY_NAME = "gateway_name"  # which gateway submitted the job
    GATEWAY_USER = "gateway_user"  # end-user identity behind a community acct
    ENSEMBLE_ID = "ensemble_id"  # parameter-sweep / ensemble grouping
    WORKFLOW_ID = "workflow_id"  # DAG workflow grouping
    COALLOCATION_ID = "coallocation_id"  # multi-site co-scheduled run
    INTERACTIVE = "interactive"  # interactive / steering / viz session


@dataclass
class Job:
    """A single batch job submitted to one resource provider.

    ``cores`` is the requested core count; ``walltime`` the requested limit in
    seconds; ``true_runtime`` the duration the application would run if not
    limited (``min(true_runtime, walltime)`` elapses on the machine).  Set
    ``will_fail`` for application failures: the job ends at ``true_runtime``
    in :attr:`JobState.FAILED`.  ``job_id`` comes from the simulator the job
    will run in (``sim.next_id("job")``).
    """

    user: str
    account: str
    cores: int
    walltime: float
    true_runtime: float
    job_id: int
    will_fail: bool = False
    priority: float = 0.0
    #: earliest time the job may start (used for co-allocated synchronized
    #: starts); None means "as soon as possible"
    not_before: Optional[float] = None
    attributes: dict[str, Any] = field(default_factory=dict)

    # ground truth (simulation-only; never enters accounting records)
    true_modality: Optional[str] = None
    true_user: Optional[str] = None

    # filled in by the site/scheduler as the job progresses
    queue: Optional[str] = None  # named queue the site routed the job to
    state: JobState = JobState.CREATED
    resource: Optional[str] = None
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    charged_nu: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"job needs >= 1 core, got {self.cores}")
        if self.walltime <= 0:
            raise ValueError(f"walltime must be positive, got {self.walltime}")
        if self.true_runtime < 0:
            raise ValueError(f"true_runtime must be >= 0, got {self.true_runtime}")
        if self.true_user is None:
            self.true_user = self.user

    # -- derived quantities ----------------------------------------------
    @property
    def elapsed(self) -> Optional[float]:
        """Wall-clock seconds the job actually occupied the machine."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def wait_time(self) -> Optional[float]:
        """Seconds spent in the queue before starting (None if never started)."""
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def bounded_runtime(self) -> float:
        """The wall-clock duration the job will occupy nodes if started."""
        return min(self.true_runtime, self.walltime)

    @property
    def is_interactive(self) -> bool:
        return bool(self.attributes.get(AttributeKeys.INTERACTIVE, False))

    def final_state_when_run_to_completion(self) -> JobState:
        """The terminal state this job reaches if left to run."""
        if self.true_runtime > self.walltime:
            # Hits the walltime limit before it can complete or fail.
            return JobState.KILLED_WALLTIME
        if self.will_fail:
            return JobState.FAILED
        return JobState.COMPLETED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Job {self.job_id} user={self.user} cores={self.cores} "
            f"state={self.state.value}>"
        )

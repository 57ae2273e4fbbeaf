"""Pilot jobs (the SAGA BigJob / Condor glide-in pattern).

A *pilot* is a single placeholder batch job that, once running, executes a
stream of user tasks inside its own allocation — decoupling task throughput
from batch-queue waits.  Pilots were in heavy use on the 2010 TeraGrid, and
they matter to this paper for two reasons:

* performance: a W-task ensemble pays one queue wait instead of W;
* **measurement**: accounting sees *one job* — the tasks inside are
  invisible, so an ensemble user running pilots looks like a batch user
  unless the pilot system forwards task attributes.  Experiment F8
  quantifies both effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.infra.job import Job, JobState
from repro.infra.site import ResourceProvider
from repro.sim import Simulator
from repro.sim.resources import Resource

__all__ = ["PilotTask", "Pilot", "PilotManager"]


@dataclass(eq=False)
class PilotTask:
    """One unit of work executed inside a pilot (invisible to accounting)."""

    cores: int
    runtime: float
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("task needs >= 1 core")
        if self.runtime <= 0:
            raise ValueError("task runtime must be positive")

    @property
    def done(self) -> bool:
        return self.finished_at is not None


class Pilot:
    """A live pilot: a core pool inside one batch job.

    Tasks queue FIFO on the pilot's core pool; whatever is still queued or
    running when the placeholder job's walltime expires is lost (the classic
    pilot truncation hazard).
    """

    def __init__(
        self,
        sim: Simulator,
        job: Job,
        cores: int,
        reprovision: bool = False,
        max_reprovisions: int = 0,
    ) -> None:
        self.sim = sim
        self.job = job
        self.cores = cores
        self._pool: Optional[Resource] = None
        self.tasks: list[PilotTask] = []
        self.completed: list[PilotTask] = []
        self.lost: list[PilotTask] = []
        self._active = False
        #: if the placeholder dies to infrastructure (FAILED), launch a
        #: successor and move the unfinished tasks onto it
        self.reprovision = reprovision
        self.reprovisions_left = max_reprovisions
        self.replacement: Optional["Pilot"] = None

    @property
    def is_active(self) -> bool:
        return self._active

    def submit_task(self, task: PilotTask) -> PilotTask:
        if task.cores > self.cores:
            raise ValueError(
                f"task needs {task.cores} cores; pilot has {self.cores}"
            )
        task.submitted_at = self.sim.now
        self.tasks.append(task)
        if self._active:
            self.sim.process(self._run_task(task), name="pilot-task")
        return task

    # -- lifecycle driven by PilotManager ----------------------------------
    def _activate(self) -> None:
        self._active = True
        self._pool = Resource(self.sim, capacity=self.cores)
        for task in self.tasks:
            if not task.done and task.started_at is None:
                self.sim.process(self._run_task(task), name="pilot-task")

    def _deactivate(self) -> None:
        self._active = False
        for task in self.tasks:
            if not task.done:
                self.lost.append(task)

    def _run_task(self, task: PilotTask):
        assert self._pool is not None
        request = self._pool.request(amount=task.cores)
        yield request
        if not self._active or task.done:
            self._pool.release(request)
            return
        task.started_at = self.sim.now
        yield self.sim.timeout(task.runtime)
        if self._active and task.started_at is not None and not task.done:
            task.finished_at = self.sim.now
            self.completed.append(task)
        self._pool.release(request)


class PilotManager:
    """Launches pilots as batch jobs and drives their lifecycles."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.pilots: list[Pilot] = []
        self.pilots_lost = 0
        self.pilots_reprovisioned = 0
        self.tasks_rescued = 0

    def launch(
        self,
        site: ResourceProvider,
        user: str,
        account: str,
        cores: int,
        walltime: float,
        attributes: Optional[dict] = None,
        true_modality: Optional[str] = None,
        reprovision: bool = False,
        max_reprovisions: int = 2,
    ) -> Pilot:
        """Submit the placeholder job; tasks may be queued immediately.

        With ``reprovision=True`` a pilot whose placeholder dies to
        infrastructure failure (node or site loss, state ``FAILED``) is
        replaced — up to ``max_reprovisions`` times — once the site is back
        up, and its unfinished tasks move to the successor.
        """
        job = Job(
            user=user,
            account=account,
            cores=cores,
            walltime=walltime,
            # The placeholder runs to its walltime regardless of task load;
            # that is what the batch system (and accounting) sees.
            true_runtime=walltime + 1.0,
            job_id=self.sim.next_id("job"),
            attributes=dict(attributes or {}),
            true_modality=true_modality,
        )
        pilot = Pilot(
            self.sim,
            job,
            cores,
            reprovision=reprovision,
            max_reprovisions=max_reprovisions if reprovision else 0,
        )
        self.pilots.append(pilot)
        site.submit(job)
        self.sim.process(self._drive(site, pilot), name=f"pilot-{job.job_id}")
        return pilot

    def _drive(self, site: ResourceProvider, pilot: Pilot):
        scheduler = site.scheduler
        job = pilot.job
        completion = scheduler.wait_for(job)
        started = yield scheduler.wait_for_start(job)
        if started is not None:
            pilot._activate()
        yield completion
        pilot._deactivate()
        # Walltime truncation (KILLED_WALLTIME) is the classic pilot hazard
        # and stays a loss; only infrastructure death (FAILED) is recoverable.
        if not pilot.reprovision or job.state is not JobState.FAILED:
            return
        stranded = [t for t in pilot.tasks if not t.done]
        if not stranded:
            return
        self.pilots_lost += 1
        if pilot.reprovisions_left <= 0:
            return
        if hasattr(site, "wait_until_up"):
            yield site.wait_until_up()
        replacement = self.launch(
            site,
            user=job.user,
            account=job.account,
            cores=pilot.cores,
            walltime=job.walltime,
            attributes=dict(job.attributes),
            true_modality=job.true_modality,
            reprovision=True,
            max_reprovisions=pilot.reprovisions_left - 1,
        )
        pilot.replacement = replacement
        self.pilots_reprovisioned += 1
        for task in stranded:
            if task in pilot.lost:
                pilot.lost.remove(task)
            task.started_at = None
            replacement.submit_task(task)
            self.tasks_rescued += 1

"""Named batch queues and routing.

TeraGrid sites partitioned their schedulers into queues — ``normal``,
``long``, ``wide`` (capability), ``interactive`` — each with walltime/size
limits and a priority treatment.  The queue a job lands in is recorded in
accounting (it is one of the structural signals the measurement system can
use: the viz modality is detectable through the interactive queue even
without the proposed attributes).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.infra.cluster import Cluster
from repro.infra.job import Job
from repro.infra.units import DAY, HOUR

__all__ = ["QueueSpec", "QueueSet", "default_queues"]


@dataclass(frozen=True)
class QueueSpec:
    """One named queue: admission limits and a priority treatment."""

    name: str
    max_walltime: float
    max_cores: int
    priority_boost: float = 0.0

    def admits(self, job: Job) -> bool:
        return job.walltime <= self.max_walltime and job.cores <= self.max_cores

    def __post_init__(self) -> None:
        if self.max_walltime <= 0 or self.max_cores < 1:
            raise ValueError(f"invalid limits for queue {self.name!r}")


class QueueSet:
    """A site's queues plus the routing rule.

    Routing is by declaration order: the first queue that admits the job
    wins, with interactive jobs steered to the interactive queue when one
    exists.  A job no queue admits is rejected at submission — exactly what
    ``qsub`` would do.
    """

    def __init__(self, queues: list[QueueSpec]) -> None:
        if not queues:
            raise ValueError("a queue set needs at least one queue")
        names = [q.name for q in queues]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate queue names in {names}")
        self.queues = list(queues)
        self._by_name = {q.name: q for q in queues}

    def get(self, name: str) -> QueueSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no queue named {name!r}") from None

    def route(self, job: Job) -> QueueSpec:
        """The queue this job runs in; raises ValueError if none admits it."""
        if job.is_interactive and "interactive" in self._by_name:
            interactive = self._by_name["interactive"]
            if interactive.admits(job):
                return interactive
        for queue in self.queues:
            if queue.name == "interactive":
                continue  # never route batch work to the interactive queue
            if queue.admits(job):
                return queue
        raise ValueError(
            f"no queue admits job {job.job_id} "
            f"({job.cores} cores, {job.walltime / HOUR:.1f}h walltime)"
        )


def default_queues(cluster: Cluster) -> QueueSet:
    """The canonical TG-site queue structure, scaled to the machine.

    * ``interactive`` — short, small, strongly boosted;
    * ``normal`` — up to a day, up to half the machine;
    * ``wide`` — bigger than half the machine (capability work), modest boost
      (sites wanted big jobs to move);
    * ``long`` — up to a week for jobs that cannot checkpoint, no boost.
    """
    half = max(cluster.total_cores // 2, 1)
    return QueueSet(
        [
            QueueSpec(
                name="interactive",
                max_walltime=12 * HOUR,
                max_cores=max(cluster.cores_per_node * 4, 1),
                priority_boost=100.0,
            ),
            QueueSpec(
                name="normal",
                max_walltime=24 * HOUR,
                max_cores=half,
            ),
            QueueSpec(
                name="wide",
                max_walltime=24 * HOUR,
                max_cores=cluster.total_cores,
                priority_boost=10.0,
            ),
            QueueSpec(
                name="long",
                max_walltime=7 * DAY,
                max_cores=half,
            ),
            # Big *and* long: the by-request queue every site kept around.
            QueueSpec(
                name="special",
                max_walltime=7 * DAY,
                max_cores=cluster.total_cores,
            ),
        ]
    )

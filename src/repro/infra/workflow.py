"""DAG workflows over the federation.

A :class:`TaskGraph` is a directed acyclic graph of job specifications with
optional data products flowing along edges.  The :class:`WorkflowEngine`
executes one graph as a simulation process: a task becomes eligible when all
its predecessors finish, its inputs are staged across the WAN if the producer
ran at a different site, and every job is stamped with a shared
``workflow_id`` attribute — the instrumentation that lets the measurement
system see workflows as workflows rather than as unrelated jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.infra.job import AttributeKeys, Job
from repro.infra.metascheduler import Metascheduler, NoEligibleSiteError
from repro.infra.network import Network
from repro.sim import AllOf, Simulator

__all__ = ["TaskGraph", "TaskSpec", "WorkflowEngine", "WorkflowResult"]


@dataclass
class TaskSpec:
    """One node of a workflow: the job to run plus its output size."""

    name: str
    cores: int
    walltime: float
    true_runtime: float
    output_bytes: float = 0.0
    will_fail: bool = False

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("task needs >= 1 core")
        if self.output_bytes < 0:
            raise ValueError("output_bytes must be >= 0")


class TaskGraph:
    """A DAG of :class:`TaskSpec` nodes.

    Edges mean "consumer needs producer's output".  Tasks and each task's
    edges keep their insertion order, and a dependency that would close a
    cycle is rejected.
    """

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._specs: dict[str, TaskSpec] = {}
        # Insertion-ordered adjacency (dicts used as ordered sets).
        self._succ: dict[str, dict[str, None]] = {}
        self._pred: dict[str, dict[str, None]] = {}

    def add_task(self, spec: TaskSpec) -> TaskSpec:
        if spec.name in self._specs:
            raise ValueError(f"duplicate task {spec.name!r}")
        self._specs[spec.name] = spec
        self._succ[spec.name] = {}
        self._pred[spec.name] = {}
        return spec

    def add_dependency(self, producer: str, consumer: str) -> None:
        for task in (producer, consumer):
            if task not in self._specs:
                raise KeyError(f"unknown task {task!r}")
        if self._reaches(consumer, producer):
            raise ValueError(
                f"dependency {producer!r} -> {consumer!r} would create a cycle"
            )
        self._succ[producer][consumer] = None
        self._pred[consumer][producer] = None

    def _reaches(self, source: str, target: str) -> bool:
        """Whether a path (possibly empty) leads from ``source`` to ``target``."""
        seen = {source}
        stack = [source]
        while stack:
            task = stack.pop()
            if task == target:
                return True
            for child in self._succ[task]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False

    # -- views -------------------------------------------------------------
    def spec(self, name: str) -> TaskSpec:
        return self._specs[name]

    def tasks(self) -> list[str]:
        return list(self._specs)

    def predecessors(self, name: str) -> list[str]:
        return list(self._pred[name])

    @classmethod
    def parameter_sweep(
        cls,
        name: str,
        width: int,
        cores: int,
        walltime: float,
        true_runtime: float,
        with_merge: bool = True,
        output_bytes: float = 0.0,
    ) -> "TaskGraph":
        """A canonical sweep: ``width`` independent tasks, optional merge."""
        if width < 1:
            raise ValueError("width must be >= 1")
        graph = cls(name=name)
        for i in range(width):
            graph.add_task(
                TaskSpec(
                    name=f"{name}-sweep-{i}",
                    cores=cores,
                    walltime=walltime,
                    true_runtime=true_runtime,
                    output_bytes=output_bytes,
                )
            )
        if with_merge:
            graph.add_task(
                TaskSpec(
                    name=f"{name}-merge",
                    cores=1,
                    walltime=walltime,
                    true_runtime=true_runtime / 4 if true_runtime > 0 else 0.0,
                )
            )
            for i in range(width):
                graph.add_dependency(f"{name}-sweep-{i}", f"{name}-merge")
        return graph


@dataclass
class WorkflowResult:
    """Outcome of one workflow execution."""

    workflow_id: int
    started_at: float
    finished_at: float
    jobs: list[Job] = field(default_factory=list)
    transfers: int = 0

    @property
    def makespan(self) -> float:
        return self.finished_at - self.started_at


class WorkflowEngine:
    """Executes task graphs for a user against the federation."""

    def __init__(
        self,
        sim: Simulator,
        metascheduler: Metascheduler,
        network: Optional[Network] = None,
    ) -> None:
        self.sim = sim
        self.metascheduler = metascheduler
        self.network = network
        self.results: list[WorkflowResult] = []

    def run(
        self,
        graph: TaskGraph,
        user: str,
        account: str,
        true_modality: Optional[str] = None,
        extra_attributes: Optional[dict] = None,
    ):
        """Start executing ``graph``; returns the engine Process.

        The process's value is a :class:`WorkflowResult`.
        """
        return self.sim.process(
            self._execute(graph, user, account, true_modality, extra_attributes),
            name=f"workflow-{graph.name}",
        )

    def _execute(self, graph, user, account, true_modality, extra_attributes):
        workflow_id = self.sim.next_id("workflow")
        started_at = self.sim.now
        finished: dict[str, Job] = {}
        jobs: list[Job] = []
        transfers = 0
        remaining = set(graph.tasks())
        # Tasks currently running: name -> (job, completion event)
        in_flight: dict[str, tuple] = {}

        def launch(task_name: str):
            spec = graph.spec(task_name)
            attributes = {AttributeKeys.WORKFLOW_ID: f"wf-{workflow_id}"}
            if extra_attributes:
                attributes.update(extra_attributes)
            job = Job(
                user=user,
                account=account,
                cores=spec.cores,
                walltime=spec.walltime,
                true_runtime=spec.true_runtime,
                job_id=self.sim.next_id("job"),
                will_fail=spec.will_fail,
                attributes=attributes,
                true_modality=true_modality,
            )
            try:
                provider = self.metascheduler.select(job)
            except NoEligibleSiteError:
                # Whole federation believed down: aim at the first provider
                # (deterministic) and let _run_task wait out the outage.
                provider = self.metascheduler.providers[0]
            done = self.sim.event()
            self.sim.process(
                self._run_task(provider, job, graph, task_name, finished, done),
                name=f"task-{task_name}",
            )
            return job, done

        while remaining or in_flight:
            # Launch every task whose predecessors have all finished.
            ready = [
                t
                for t in sorted(remaining)
                if all(p in finished for p in graph.predecessors(t))
            ]
            for task_name in ready:
                remaining.discard(task_name)
                job, done = launch(task_name)
                jobs.append(job)
                in_flight[task_name] = (job, done)
            if not in_flight:
                break  # defensive: nothing runnable and nothing running
            # Wait until every in-flight task is done, then loop to launch
            # newly-eligible tasks. (AnyOf would be lower latency for wide
            # graphs with uneven levels; AllOf keeps replay deterministic and
            # matches DAGMan-style level scheduling closely enough.)
            events = [done for _job, done in in_flight.values()]
            yield AllOf(self.sim, events)
            for task_name, (job, _done) in list(in_flight.items()):
                finished[task_name] = job
                del in_flight[task_name]
                transfers += getattr(job, "_staging_transfers", 0)

        result = WorkflowResult(
            workflow_id=workflow_id,
            started_at=started_at,
            finished_at=self.sim.now,
            jobs=jobs,
            transfers=transfers,
        )
        self.results.append(result)
        return result

    def _run_task(self, provider, job, graph, task_name, finished, done):
        # Stage inputs from producers that ran at other sites.
        staging = 0
        if self.network is not None:
            for producer_name in graph.predecessors(task_name):
                producer_job = finished[producer_name]
                producer_spec = graph.spec(producer_name)
                if (
                    producer_spec.output_bytes > 0
                    and producer_job.resource is not None
                ):
                    transfer_done = self.network.transfer(
                        producer_job.resource,
                        provider.name,
                        producer_spec.output_bytes,
                        tag="ensemble",
                    )
                    yield transfer_done
                    staging += 1
        job._staging_transfers = staging  # type: ignore[attr-defined]
        # The provider was chosen before staging; it may have dropped while
        # the inputs moved.  submit_to fails over to another site, and if the
        # whole federation is believed down we wait out the outage here.
        try:
            provider = self.metascheduler.submit_to(provider, job)
        except NoEligibleSiteError:
            yield provider.wait_until_up()
            provider = self.metascheduler.submit_to(provider, job)
        # Capture the wait event immediately: if the site later dies and the
        # metascheduler requeues the job, this event is bridged to wherever
        # the job lands, so the workflow never dangles.
        yield provider.scheduler.wait_for(job)
        done.succeed(job)

"""Co-allocation: tightly-coupled computation across multiple sites.

The rarest — and operationally hardest — TeraGrid modality: one MPI
application spanning two or more machines simultaneously.  The co-allocator
probes each site's scheduler for the parts' earliest feasible starts, picks a
common start (the max, plus slack), lays down admitting advance reservations,
and submits the parts with synchronized ``not_before`` constraints.  All
parts share a ``coallocation_id`` attribute, and the *coupled runtime* is
inflated by a WAN synchronization overhead factor relative to what a single
machine would need — the slowdown measured in experiment F7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.infra.job import AttributeKeys, Job, JobState
from repro.infra.scheduler.base import Reservation
from repro.infra.site import ResourceProvider, SiteDownError
from repro.infra.units import MINUTE
from repro.sim import AllOf, Simulator

__all__ = ["CoAllocator", "CoAllocation"]


@dataclass
class CoAllocation:
    """Outcome of one co-allocated run."""

    coalloc_id: str
    requested_at: float
    planned_start: float
    jobs: list[Job] = field(default_factory=list)
    finished_at: Optional[float] = None

    @property
    def synchronized(self) -> bool:
        """Whether every part started at the planned common time."""
        return all(
            j.start_time is not None
            and abs(j.start_time - self.planned_start) < 1.0
            for j in self.jobs
        )

    @property
    def succeeded(self) -> bool:
        return all(j.state is JobState.COMPLETED for j in self.jobs)


class CoAllocator:
    """Plans and launches synchronized multi-site runs."""

    def __init__(
        self,
        sim: Simulator,
        slack: float = 5 * MINUTE,
        wan_overhead_factor: float = 1.25,
    ) -> None:
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        if wan_overhead_factor < 1.0:
            raise ValueError(
                f"wan_overhead_factor must be >= 1, got {wan_overhead_factor}"
            )
        self.sim = sim
        self.slack = slack
        self.wan_overhead_factor = wan_overhead_factor
        self.coallocations: list[CoAllocation] = []

    def launch(
        self,
        user: str,
        account: str,
        parts: Sequence[tuple[ResourceProvider, int]],
        walltime: float,
        single_site_runtime: float,
        true_modality: Optional[str] = None,
    ):
        """Start a co-allocated run; returns the coordinating Process.

        ``parts`` is a sequence of ``(provider, cores)``.  The coupled
        application's wall-clock need is ``single_site_runtime *
        wan_overhead_factor`` (every part runs that long).  The process value
        is the :class:`CoAllocation`.
        """
        if len(parts) < 2:
            raise ValueError("co-allocation needs at least two parts")
        return self.sim.process(
            self._coordinate(
                user, account, list(parts), walltime, single_site_runtime,
                true_modality,
            ),
            name="coallocation",
        )

    def _coordinate(
        self, user, account, parts, walltime, single_site_runtime, true_modality
    ):
        coalloc_id = f"coalloc-{self.sim.next_id('coalloc')}"
        coupled_runtime = single_site_runtime * self.wan_overhead_factor
        record = CoAllocation(
            coalloc_id=coalloc_id,
            requested_at=self.sim.now,
            planned_start=0.0,
        )
        self.coallocations.append(record)

        # Build the part jobs first so probes use the real specs.
        jobs: list[Job] = []
        for provider, cores in parts:
            job = Job(
                user=user,
                account=account,
                cores=cores,
                walltime=walltime,
                true_runtime=coupled_runtime,
                job_id=self.sim.next_id("job"),
                attributes={AttributeKeys.COALLOCATION_ID: coalloc_id},
                true_modality=true_modality,
            )
            jobs.append(job)
        record.jobs = jobs

        # Probe earliest starts and choose the common start time.
        estimates = [
            provider.scheduler.earliest_start(job)
            for (provider, _cores), job in zip(parts, jobs)
        ]
        common_start = max(estimates) + self.slack
        record.planned_start = common_start

        # Reserve capacity and submit each part pinned to the common start.
        part_ids = {job.job_id for job in jobs}
        submitted: list[tuple[ResourceProvider, Job]] = []
        for (provider, _cores), job in zip(parts, jobs):
            nodes = provider.cluster.nodes_for(job.cores)
            provider.scheduler.add_reservation(
                Reservation(
                    start=common_start,
                    end=common_start + walltime,
                    nodes=nodes,
                    access=lambda j, ids=part_ids: j.job_id in ids,
                    label=coalloc_id,
                )
            )
            job.not_before = common_start
            try:
                provider.submit(job)
            except SiteDownError:
                # A site dropped between planning and submission: the coupled
                # run cannot proceed with a missing part.  Cancel what got in
                # and report the co-allocation as failed.
                for other_provider, other_job in submitted:
                    other_provider.cancel(other_job)
                record.finished_at = self.sim.now
                return record
            submitted.append((provider, job))

        completions = [
            provider.scheduler.wait_for(job)
            for (provider, _cores), job in zip(parts, jobs)
        ]
        yield AllOf(self.sim, completions)
        record.finished_at = self.sim.now
        return record

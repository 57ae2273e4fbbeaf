"""The weekly-drain capability policy (the Kraken schedule).

NICS reconciled "maximum total cycles" with "full-machine hero runs" by
forcing a machine-wide drain once a week and running consecutive capability
jobs in the cleared window, instead of letting the scheduler drain
opportunistically whenever a huge job reached the head (Hazlewood et al.,
*Scheduling a 100,000 Core Supercomputer for Maximum Utilization and
Capability*).  Experiment F4 reproduces the utilization comparison.

Mechanically: a full-machine reservation recurs every ``period``; only
*capability* jobs (fraction of the machine >= ``capability_fraction``) are
admitted inside the window, in arrival order.  Outside the window, capability
jobs are held back entirely so they never force an opportunistic drain.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.infra.cluster import Cluster
from repro.infra.job import Job
from repro.infra.scheduler.backfill import EasyBackfillScheduler
from repro.infra.scheduler.base import Reservation
from repro.infra.units import DAY, WEEK
from repro.sim import Simulator

__all__ = ["WeeklyDrainScheduler"]


class WeeklyDrainScheduler(EasyBackfillScheduler):
    """EASY backfill plus a recurring capability window.

    ``capability_fraction`` — jobs needing at least this fraction of the
    machine's nodes are "capability" jobs, admitted only inside windows.
    ``window`` — length of each capability window.
    ``period`` — time between window starts (default one week).
    ``first_window`` — start of the first window.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        on_job_end: Optional[Callable[[Job], None]] = None,
        capability_fraction: float = 0.9,
        window: float = 1 * DAY,
        period: float = WEEK,
        first_window: float = 5 * DAY,
    ) -> None:
        super().__init__(sim, cluster, on_job_end=on_job_end)
        if not (0 < capability_fraction <= 1.0):
            raise ValueError("capability_fraction must be in (0, 1]")
        if window <= 0 or period <= 0 or window > period:
            raise ValueError("need 0 < window <= period")
        self.capability_fraction = capability_fraction
        self.window = window
        self.period = period
        self.windows_opened = 0
        sim.process(self._window_cycle(sim, first_window), name="drain-cycle")

    # -- classification ------------------------------------------------------
    def is_capability_job(self, job: Job) -> bool:
        # A queued job's node count was fixed at submission.
        nodes = self._nodes.get(job.job_id)
        if nodes is None:
            nodes = self.cluster.nodes_for(job.cores)
        return nodes >= self.capability_fraction * self.cluster.nodes

    # -- recurring reservation --------------------------------------------------
    def _window_cycle(self, sim: Simulator, first_window: float):
        # Each window's reservation is laid down a full period in advance so
        # normal jobs stop starting once their walltime would cross into it:
        # the machine drains itself toward the window with no manual purge.
        next_start = first_window
        while True:
            self.windows_opened += 1
            self.add_reservation(
                Reservation(
                    start=next_start,
                    end=next_start + self.window,
                    nodes=self.cluster.nodes,
                    access=self.is_capability_job,
                    label=f"capability-window-{self.windows_opened}",
                )
            )
            yield sim.timeout(next_start + self.window - sim.now)
            next_start += self.period

    def _in_window(self) -> bool:
        return any(
            r.start <= self.sim.now < r.end and r.access is not None
            for r in self.reservations
            if r.nodes == self.cluster.nodes
        )

    # -- policy ---------------------------------------------------------------------
    def _ordered_queue(self) -> list[Job]:
        order = super()._ordered_queue()
        if self._in_window():
            # Capability jobs first while the machine is cleared.
            return sorted(
                order,
                key=lambda job: (
                    0 if self.is_capability_job(job) else 1,
                    self._arrival_order[job.job_id],
                ),
            )
        # Outside windows, capability jobs are invisible to the scheduler so
        # they cannot pin a shadow reservation and drain the machine.
        return [job for job in order if not self.is_capability_job(job)]

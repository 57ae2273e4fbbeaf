"""A resource provider: cluster + scheduler + charging + record emission.

:class:`ResourceProvider` is the unit of federation.  It owns a cluster and a
batch scheduler, charges each terminal job's allocation in normalized units,
and publishes one usage record per terminal job through its AMIE feed to the
central accounting database.
"""

from __future__ import annotations

from typing import Callable, Optional, Type

from repro.infra.accounting import AmieFeed, CentralAccountingDB, UsageRecord
from repro.infra.allocations import AllocationLedger
from repro.infra.cluster import Cluster
from repro.infra.job import Job
from repro.infra.queues import QueueSet, default_queues
from repro.infra.scheduler.base import BatchScheduler
from repro.infra.scheduler.backfill import EasyBackfillScheduler
from repro.infra.units import HOUR, nu_charge
from repro.sim import Simulator

__all__ = ["ResourceProvider", "SiteDownError"]


class SiteDownError(RuntimeError):
    """Submission rejected because the site is in an unplanned outage."""


class ResourceProvider:
    """One TeraGrid site.

    Parameters
    ----------
    sim, cluster
        The simulator and the machine description.
    ledger
        Shared allocation ledger (charging target).
    central
        Shared central accounting database; records flow there through an
        AMIE-style batched feed.
    scheduler_factory
        Policy class, constructed as ``factory(sim, cluster, on_job_end=...)``.
    amie_interval
        Batching interval of the accounting feed.
    feed_factory
        Optional replacement feed constructor, called as ``factory(sim)``.
        Scenario assembly uses it to splice in a
        :class:`~repro.infra.amie.ResilientAmieFeed` when a packet-fault
        regime is active; the default (None) builds the plain lossless
        :class:`AmieFeed`, byte-identical to historical behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        ledger: AllocationLedger,
        central: CentralAccountingDB,
        scheduler_factory: Type[BatchScheduler] | Callable[..., BatchScheduler] = EasyBackfillScheduler,
        amie_interval: float = 6 * HOUR,
        queues: Optional[QueueSet] = None,
        feed_factory: Optional[Callable[[Simulator], AmieFeed]] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.ledger = ledger
        self.queues = queues if queues is not None else default_queues(cluster)
        if feed_factory is not None:
            self.feed = feed_factory(sim)
        else:
            self.feed = AmieFeed(sim, central, interval=amie_interval)
        self.scheduler = scheduler_factory(sim, cluster, on_job_end=self._on_job_end)
        self.records_emitted = 0
        #: unplanned-outage state (see :mod:`repro.infra.resilience`)
        self.up = True
        self.down_since: float | None = None
        self.outages = 0
        self.jobs_lost_to_outages = 0
        self._up_event = None

    @property
    def name(self) -> str:
        return self.cluster.name

    # -- job intake -----------------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Route the job to a queue and submit it to the batch scheduler."""
        if not self.up:
            raise SiteDownError(
                f"{self.name} is down; job {job.job_id} rejected"
            )
        if job.account not in self.ledger:
            raise KeyError(
                f"job {job.job_id} charges unknown account {job.account!r}"
            )
        if job.user not in self.ledger.get(job.account).users:
            raise PermissionError(
                f"user {job.user!r} is not on account {job.account!r}"
            )
        return self._enqueue(job)

    def _enqueue(self, job: Job) -> Job:
        """Queue routing + scheduler submission, without the up/ACL checks.

        The metascheduler uses this to put a withdrawn job back in a
        suspended site's queue when failover finds no alternative.
        """
        queue = self.queues.route(job)
        job.queue = queue.name
        job.priority += queue.priority_boost
        return self.scheduler.submit(job)

    def withdraw(self, job: Job) -> tuple:
        """Pull a pending job back out silently (no record); see scheduler.

        Reverses the queue routing applied at submission so a later
        resubmission starts from a clean slate.  Returns the (completion,
        start) events the scheduler held for the job.
        """
        events = self.scheduler.withdraw(job)
        if job.queue is not None:
            job.priority -= self.queues.get(job.queue).priority_boost
            job.queue = None
        return events

    def cancel(self, job: Job) -> None:
        self.scheduler.cancel(job)

    # -- unplanned outages ----------------------------------------------------
    def mark_down(self) -> int:
        """Take the whole site down: kill running work, freeze the queue.

        Returns how many running jobs died.  Queued jobs survive (as a PBS
        server restart preserves its queue); submissions raise
        :class:`SiteDownError` until :meth:`mark_up`.
        """
        if not self.up:
            return 0
        self.up = False
        self.down_since = self.sim.now
        self.outages += 1
        self._up_event = self.sim.event()
        # Suspend *before* killing so freed nodes don't restart work on a
        # dead machine (kills are deferred).
        self.scheduler.suspend()
        victims = list(self.scheduler.running.values())
        for entry in victims:
            self.scheduler.kill(entry.job, "site_outage")
        self.jobs_lost_to_outages += len(victims)
        return len(victims)

    def mark_up(self) -> None:
        """End an outage: resume scheduling and release recovery waiters."""
        if self.up:
            return
        self.up = True
        self.down_since = None
        event, self._up_event = self._up_event, None
        self.scheduler.resume()
        if event is not None:
            event.succeed(self)

    def wait_until_up(self):
        """An event that fires when the site is (or becomes) up."""
        if self.up or self._up_event is None:
            return self.sim.timeout(0.0, value=self)
        return self._up_event

    # -- terminal-job handling ----------------------------------------------------
    def _on_job_end(self, job: Job) -> None:
        # Charge for the time actually occupied (zero if never started).
        if job.start_time is not None and job.end_time is not None:
            elapsed = job.end_time - job.start_time
            charge = nu_charge(job.cores, elapsed, self.cluster.nu_per_core_hour)
            job.charged_nu = self.ledger.charge(job.account, charge)
        else:
            job.charged_nu = 0.0
        queue_name = job.queue or ("interactive" if job.is_interactive else "normal")
        allocation = self.ledger.get(job.account)
        self.feed.publish(
            UsageRecord.from_job(
                job,
                queue_name=queue_name,
                field_of_science=allocation.field_of_science,
            )
        )
        self.records_emitted += 1

    # -- status (consumed by the information service) --------------------------------
    @property
    def available_nodes(self) -> int:
        """Nodes not blocked by an active drain (a full or partial outage)."""
        now = self.sim.now
        blocked = sum(
            r.nodes
            for r in self.scheduler.reservations
            if r.access is None and r.start <= now < r.end
        )
        return max(self.cluster.nodes - blocked, 0)

    def status_snapshot(self) -> dict:
        """A point-in-time description of this site's load."""
        scheduler = self.scheduler
        return {
            "resource": self.name,
            "time": self.sim.now,
            "total_nodes": self.cluster.nodes,
            "free_nodes": scheduler.free_nodes,
            "running_jobs": len(scheduler.running),
            "queued_jobs": scheduler.queue_length,
            "pending_node_seconds": scheduler.pending_node_seconds(),
            "up": self.up,
            "available_nodes": self.available_nodes,
        }

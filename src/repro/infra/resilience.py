"""Unplanned site outages and the arithmetic of recovery.

TeraGrid sites went down *unannounced* — power events, filesystem losses,
interconnect faults — and the federation's value proposition was that users
could keep working through them (metascheduling around a dead site, gateways
queueing requests, pilots re-provisioning).  This module injects that failure
surface:

* :class:`SiteOutageInjector` — a Poisson process per site producing
  whole-site outages (every running job dies, the scheduler suspends,
  submissions are rejected) and partial-rack outages (a slice of the machine
  drops out behind an unplanned drain reservation).  Repair times are drawn
  from a bounded lognormal; all draws come from one supplied generator so
  outage schedules are seed-stable.
* :class:`OutagePolicy` — the knobs (full/partial MTBF, repair distribution).
* :func:`saved_progress` — the checkpoint arithmetic shared by the A3/A4
  recovery paths: work saved after ``elapsed`` seconds of execution under a
  checkpoint interval.  Keeping it in one place lets a property test bound
  the loss per failure for every consumer at once.

It is deliberately distinct from a *scheduled* drain (announced in advance,
drained gracefully) and the per-node :class:`NodeFailureInjector` (kills one
job, machine stays up): an unplanned
outage is the only one of the three that the information service can
misrepresent and that the federation layer must route around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.infra.scheduler.base import Reservation
from repro.infra.site import ResourceProvider, SiteDownError
from repro.infra.units import DAY, HOUR
from repro.sim import Simulator
from repro.sim.distributions import bounded_lognormal

__all__ = [
    "OutageEvent",
    "OutagePolicy",
    "SiteDownError",
    "SiteOutageInjector",
    "saved_progress",
]


def saved_progress(elapsed: float, checkpoint_interval: Optional[float]) -> float:
    """Work preserved after ``elapsed`` seconds under checkpoint discipline.

    With no checkpointing everything is lost; otherwise progress is saved at
    every full interval boundary, so the loss per failure is strictly less
    than one ``checkpoint_interval`` (the property test in
    ``tests/users/test_recovery.py`` holds every consumer to that bound).
    """
    if checkpoint_interval is None:
        return 0.0
    if checkpoint_interval <= 0:
        raise ValueError(
            f"checkpoint_interval must be positive, got {checkpoint_interval}"
        )
    if elapsed <= 0:
        return 0.0
    return (elapsed // checkpoint_interval) * checkpoint_interval


@dataclass(frozen=True)
class OutagePolicy:
    """Failure/repair distribution knobs for one site's outage process.

    ``site_mtbf``/``partial_mtbf`` are means of exponential inter-outage
    gaps; zero disables that outage kind.  Repair durations are bounded
    lognormals (median/sigma/min/max); partial outages take a slice of
    ``partial_fraction`` of the machine down behind a drain reservation.
    """

    site_mtbf: float = 45 * DAY
    partial_mtbf: float = 0.0
    partial_fraction: float = 0.125
    repair_median: float = 6 * HOUR
    repair_sigma: float = 0.8
    repair_min: float = 1 * HOUR
    repair_max: float = 3 * DAY

    def __post_init__(self) -> None:
        if self.site_mtbf < 0 or self.partial_mtbf < 0:
            raise ValueError("MTBFs must be >= 0 (0 disables)")
        if not (0.0 < self.partial_fraction <= 1.0):
            raise ValueError(
                f"partial_fraction must be in (0, 1], got {self.partial_fraction}"
            )
        if self.repair_min <= 0 or self.repair_max < self.repair_min:
            raise ValueError("repair bounds must satisfy 0 < min <= max")


@dataclass
class OutageEvent:
    """One outage as it happened: for metrics and time-to-recover."""

    site: str
    kind: str  # "full" | "partial"
    nodes: int
    start: float
    repair: float
    jobs_killed: int = 0
    end: Optional[float] = None


class SiteOutageInjector:
    """Drives a site through unplanned full and partial outages.

    A *full* outage calls :meth:`ResourceProvider.mark_down` (running jobs
    die with cause ``"site_outage"``, the scheduler suspends, submissions
    raise :class:`SiteDownError`) and, when a metascheduler is attached, asks
    it to requeue the pending jobs it had routed there.  A *partial* outage
    kills enough node-weighted victims to free the failed slice and blocks it
    with an unplanned drain :class:`Reservation` until repair.

    Every draw (gap, repair time, victim choice) comes from ``rng``, so the
    whole outage history is a pure function of the stream seed.
    """

    def __init__(
        self,
        sim: Simulator,
        provider: ResourceProvider,
        rng: np.random.Generator,
        policy: Optional[OutagePolicy] = None,
        metascheduler=None,
    ) -> None:
        self.sim = sim
        self.provider = provider
        self.rng = rng
        self.policy = policy if policy is not None else OutagePolicy()
        self.metascheduler = metascheduler
        self.outages: list[OutageEvent] = []
        self.jobs_killed = 0
        if self.policy.site_mtbf > 0:
            sim.process(
                self._full_cycle(sim), name=f"outage:{provider.name}"
            )
        if self.policy.partial_mtbf > 0:
            sim.process(
                self._partial_cycle(sim), name=f"rack-outage:{provider.name}"
            )

    # -- introspection ------------------------------------------------------
    @property
    def outage_count(self) -> int:
        return len(self.outages)

    def _repair_time(self) -> float:
        policy = self.policy
        return bounded_lognormal(
            self.rng,
            policy.repair_median,
            policy.repair_sigma,
            policy.repair_min,
            policy.repair_max,
        )

    # -- outage processes ---------------------------------------------------
    def _full_cycle(self, sim: Simulator):
        while True:
            yield sim.timeout(float(self.rng.exponential(self.policy.site_mtbf)))
            if not self.provider.up:
                continue  # a gap elapsed inside someone else's outage
            repair = self._repair_time()
            outage = OutageEvent(
                site=self.provider.name,
                kind="full",
                nodes=self.provider.cluster.nodes,
                start=sim.now,
                repair=repair,
            )
            outage.jobs_killed = self.provider.mark_down()
            self.jobs_killed += outage.jobs_killed
            self.outages.append(outage)
            if self.metascheduler is not None:
                self.metascheduler.handle_outage(self.provider)
            yield sim.timeout(repair)
            self.provider.mark_up()
            outage.end = sim.now

    def _partial_cycle(self, sim: Simulator):
        scheduler = self.provider.scheduler
        cluster = self.provider.cluster
        while True:
            yield sim.timeout(
                float(self.rng.exponential(self.policy.partial_mtbf))
            )
            if not self.provider.up:
                continue  # the whole machine is already down
            repair = self._repair_time()
            nodes_down = max(
                1, int(round(self.policy.partial_fraction * cluster.nodes))
            )
            nodes_down = min(nodes_down, cluster.nodes)
            outage = OutageEvent(
                site=self.provider.name,
                kind="partial",
                nodes=nodes_down,
                start=sim.now,
                repair=repair,
            )
            # Kill just enough running work to vacate the failed slice.
            # Victims are node-weighted (big jobs absorb more of the rack);
            # kills are deferred, so selecting the whole set before any
            # victim ends is safe.
            running = list(scheduler.running.values())
            need = nodes_down - scheduler.free_nodes
            victims = []
            while need > 0 and running:
                weights = np.array([e.nodes for e in running], dtype=float)
                index = int(
                    self.rng.choice(len(running), p=weights / weights.sum())
                )
                victim = running.pop(index)
                victims.append(victim)
                need -= victim.nodes
            for entry in victims:
                scheduler.kill(entry.job, "site_outage")
            outage.jobs_killed = len(victims)
            self.jobs_killed += len(victims)
            scheduler.add_reservation(
                Reservation(
                    start=sim.now,
                    end=sim.now + repair,
                    nodes=nodes_down,
                    access=None,
                    label=f"outage-{self.provider.name}-{len(self.outages)}",
                )
            )
            self.outages.append(outage)
            yield sim.timeout(repair)
            outage.end = sim.now

"""Hardware fault injection.

Large machines lose nodes continuously; a node loss kills whatever job owns
it.  :class:`NodeFailureInjector` models that as a Poisson process over a
cluster's *busy* nodes: each running job is exposed in proportion to the
nodes it holds, and a struck job dies in :attr:`JobState.FAILED` (the
scheduler frees its nodes and accounting charges the time actually used —
failure semantics identical to an application crash, which is exactly how
2010-era accounting saw node losses).
"""

from __future__ import annotations

import numpy as np

from repro.infra.scheduler.base import BatchScheduler
from repro.infra.units import HOUR
from repro.sim import Simulator

__all__ = ["NodeFailureInjector"]


class NodeFailureInjector:
    """Kills running jobs at a per-node MTBF.

    ``node_mtbf`` is the mean time between failures of a *single node*; the
    instantaneous kill rate is ``busy_nodes / node_mtbf``.  The injector
    polls at ``tick`` resolution and draws the number of strikes per tick
    from the matching Poisson distribution — several nodes can fail in one
    interval, so several distinct jobs can die in one tick (capping at one
    kill per tick would systematically undercount failures on large busy
    machines).  Victims are node-weighted without replacement; the draw is
    fully determined by the supplied generator, so runs are seed-stable.

    Nodes inside an *active drain* (a reservation with ``access=None``, as a
    site outage lays) are powered down and cannot strike anyone.  Running
    jobs avoid drained nodes whenever capacity allows, so only the overlap
    the pigeonhole principle forces — ``busy + drained - total`` nodes —
    is protected; during a full-machine window every busy node is drained
    and the injector goes quiet entirely.
    """

    def __init__(
        self,
        sim: Simulator,
        scheduler: BatchScheduler,
        rng: np.random.Generator,
        node_mtbf: float = 5000 * HOUR,
        tick: float = 0.25 * HOUR,
    ) -> None:
        if node_mtbf <= 0 or tick <= 0:
            raise ValueError("node_mtbf and tick must be positive")
        self.sim = sim
        self.scheduler = scheduler
        self.rng = rng
        self.node_mtbf = node_mtbf
        self.tick = tick
        self.failures_injected = 0
        sim.process(self._inject(sim), name="fault-injector")

    def _inject(self, sim: Simulator):
        while True:
            yield sim.timeout(self.tick)
            running = list(self.scheduler.running.values())
            if not running:
                continue
            busy_nodes = sum(entry.nodes for entry in running)
            now = sim.now
            drained = sum(
                r.nodes
                for r in self.scheduler.reservations
                if r.access is None and r.start <= now < r.end
            )
            # Busy nodes forced into the drained set are powered down with
            # it and cannot fail a job.
            total = self.scheduler.cluster.nodes
            exposed = busy_nodes - max(busy_nodes + drained - total, 0)
            if exposed <= 0:
                continue
            # Strikes this tick ~ Poisson(exposed-node failure rate * tick);
            # a strike on an already-dead job's node is absorbed by the cap.
            strikes = int(
                self.rng.poisson(exposed * self.tick / self.node_mtbf)
            )
            if strikes == 0:
                continue
            strikes = min(strikes, len(running))
            # Victims are node-weighted: big jobs absorb more failures.
            weights = np.array([entry.nodes for entry in running], dtype=float)
            victims = self.rng.choice(
                len(running), size=strikes, replace=False,
                p=weights / weights.sum(),
            )
            # Kills are deferred, so killing several victims in one pass is
            # safe; sorted order keeps the event sequence independent of
            # choice()'s internal permutation.
            for index in np.sort(victims):
                self.scheduler.kill(running[int(index)].job, "node_failure")
                self.failures_injected += 1

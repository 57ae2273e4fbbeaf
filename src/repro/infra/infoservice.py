"""The integrated information service (IIS).

TeraGrid published per-site load through a federated information service
(Navarro et al., *TeraGrid's Integrated Information Service*).  Consumers —
metaschedulers, portals, users choosing a machine — saw snapshots that were
*stale* by up to the publication interval.  The staleness knob is swept in
experiment F5 to show how resource-selection quality degrades with stale
state.
"""

from __future__ import annotations

from typing import Iterable

from repro.infra.site import ResourceProvider
from repro.infra.units import MINUTE
from repro.sim import Simulator

__all__ = ["InformationService"]


class InformationService:
    """Publishes each provider's status snapshot every ``publish_interval``."""

    def __init__(
        self,
        sim: Simulator,
        providers: Iterable[ResourceProvider],
        publish_interval: float = 5 * MINUTE,
        outage_propagation_lag: float = 0.0,
    ) -> None:
        if publish_interval <= 0:
            raise ValueError(
                f"publish_interval must be positive, got {publish_interval}"
            )
        if outage_propagation_lag < 0:
            raise ValueError(
                f"outage_propagation_lag must be >= 0, got {outage_propagation_lag}"
            )
        self.sim = sim
        self.providers = {p.name: p for p in providers}
        if not self.providers:
            raise ValueError("information service needs at least one provider")
        self.publish_interval = publish_interval
        #: how long after a site drops before publications admit it is down;
        #: inside the window the last pre-outage snapshot keeps being served
        #: (the dead site cannot push fresh state, and nothing announces the
        #: outage — consumers find out the hard way, by failed submissions)
        self.outage_propagation_lag = outage_propagation_lag
        self.publications = 0
        self._published: dict[str, dict] = {
            name: provider.status_snapshot()
            for name, provider in self.providers.items()
        }
        sim.process(self._publisher(sim), name="info-service")

    def _publisher(self, sim: Simulator):
        while True:
            yield sim.timeout(self.publish_interval)
            for name, provider in self.providers.items():
                if (
                    not provider.up
                    and provider.down_since is not None
                    and sim.now - provider.down_since
                    < self.outage_propagation_lag
                ):
                    continue  # stale pre-outage snapshot stands, lying
                self._published[name] = provider.status_snapshot()
            self.publications += 1

    # -- queries ----------------------------------------------------------
    def query(self, resource: str) -> dict:
        """The most recently *published* snapshot (possibly stale)."""
        try:
            return dict(self._published[resource])
        except KeyError:
            raise KeyError(f"unknown resource {resource!r}") from None

    def believed_up(self, resource: str) -> bool:
        """Whether the *published* view says the site is up (may be stale)."""
        return bool(self.query(resource).get("up", True))

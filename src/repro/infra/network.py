"""The wide-area network between resource providers.

TeraGrid sites were joined by a dedicated backbone; the binding constraint on
a bulk transfer was almost always a site's access link.  We model each site
with an access link of finite bandwidth and an uncongested core: a transfer's
instantaneous rate is ``min`` over its two access links of the link's fair
share (bandwidth / concurrent transfers).  Rates are recomputed whenever a
transfer starts or finishes — max–min fair sharing restricted to two-link
paths, solved exactly by iterative water-filling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.sim import Simulator
from repro.sim.process import Event

__all__ = ["Network", "NetworkLink", "Transfer"]


@dataclass
class NetworkLink:
    """A site's access link: ``bandwidth`` in bytes/second."""

    site: str
    bandwidth: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")


@dataclass(eq=False)
class Transfer:
    """An in-flight bulk data movement between two sites.

    ``tag`` is a free-form attribution label (the scenario layer uses the
    modality that caused the movement), carried for analysis only.
    """

    src: str
    dst: str
    size_bytes: float
    started_at: float
    tag: Optional[str] = None
    remaining: float = field(init=False)
    rate: float = field(init=False, default=0.0)
    done: Optional[Event] = field(init=False, default=None, repr=False)
    finished_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")
        self.remaining = float(self.size_bytes)

    @property
    def duration(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class Network:
    """Max–min fair bandwidth sharing over per-site access links.

    Same-site "transfers" complete after ``local_copy_time`` (a local
    filesystem copy, effectively free compared to WAN movement).
    """

    #: seconds a same-site copy takes
    local_copy_time = 1.0

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._links: dict[str, NetworkLink] = {}
        self._active: list[Transfer] = []
        self._completed: list[Transfer] = []
        self._recompute_epoch = itertools.count()

    def add_site(self, site: str, bandwidth: float) -> NetworkLink:
        if site in self._links:
            raise ValueError(f"duplicate network site {site!r}")
        link = NetworkLink(site=site, bandwidth=bandwidth)
        self._links[site] = link
        return link

    def link(self, site: str) -> NetworkLink:
        try:
            return self._links[site]
        except KeyError:
            raise KeyError(f"unknown network site {site!r}") from None

    @property
    def completed_transfers(self) -> tuple[Transfer, ...]:
        return tuple(self._completed)

    # -- public API ----------------------------------------------------------
    def transfer(
        self, src: str, dst: str, size_bytes: float, tag: Optional[str] = None
    ) -> Event:
        """Start a transfer; the returned event triggers with the Transfer."""
        transfer = Transfer(
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            started_at=self.sim.now,
            tag=tag,
        )
        transfer.done = self.sim.event()
        if src == dst:
            def local_copy(sim, transfer):
                yield sim.timeout(self.local_copy_time)
                transfer.remaining = 0.0
                transfer.finished_at = sim.now
                self._completed.append(transfer)
                transfer.done.succeed(transfer)

            self.sim.process(local_copy(self.sim, transfer), name="local-copy")
            return transfer.done
        self.link(src), self.link(dst)  # validate endpoints
        self._settle_remaining()
        self._active.append(transfer)
        self._reschedule()
        return transfer.done

    # -- fair-share mechanics ----------------------------------------------------
    def _fair_rates(self) -> None:
        """Water-filling max–min fair allocation over access links."""
        unfixed = list(self._active)
        residual = {site: link.bandwidth for site, link in self._links.items()}
        counts: dict[str, int] = {}
        for t in unfixed:
            counts[t.src] = counts.get(t.src, 0) + 1
            counts[t.dst] = counts.get(t.dst, 0) + 1
        while unfixed:
            # The most constrained link determines the next rate level.
            bottleneck_site = min(
                (s for s in counts if counts[s] > 0),
                key=lambda s: residual[s] / counts[s],
            )
            level = residual[bottleneck_site] / counts[bottleneck_site]
            fixed_now = [
                t for t in unfixed if bottleneck_site in (t.src, t.dst)
            ]
            for t in fixed_now:
                t.rate = level
                unfixed.remove(t)
                for site in (t.src, t.dst):
                    counts[site] -= 1
                    residual[site] -= level
            counts[bottleneck_site] = 0

    def _settle_remaining(self) -> None:
        """Account bytes moved since the last recompute at current rates."""
        now = self.sim.now
        for t in self._active:
            elapsed = now - getattr(t, "_rate_since", t.started_at)
            t.remaining = max(t.remaining - t.rate * elapsed, 0.0)

    def _reschedule(self) -> None:
        """Recompute rates and arm a wakeup at the next completion."""
        epoch = next(self._recompute_epoch)
        self._current_epoch = epoch
        while True:
            # A transfer is done when its remaining bytes are gone *or* the
            # time to move them is below the clock's resolution; without the
            # time-based cutoff, sub-nanosecond tails stall the clock (the
            # wakeup delay underflows float addition at large sim times).
            finished = [
                t
                for t in self._active
                if t.remaining <= 1e-6
                or (t.rate > 0 and t.remaining / t.rate <= 1e-6)
            ]
            if not finished:
                break
            for t in finished:
                self._finish(t)
        self._fair_rates()
        for t in self._active:
            t._rate_since = self.sim.now  # type: ignore[attr-defined]
        if not self._active:
            return
        next_done = min(t.remaining / t.rate for t in self._active)
        # Stale wakeups (superseded by a later recompute) are ignored by
        # comparing against the epoch current at wake time.
        self._current_epoch = epoch
        self.sim.process(self._waker(self.sim, epoch, next_done), name="net-waker")

    def _waker(self, sim: Simulator, epoch: int, delay: float):
        yield sim.timeout(delay)
        if getattr(self, "_current_epoch", None) == epoch:
            self._settle_remaining()
            self._reschedule()

    def _finish(self, transfer: Transfer) -> None:
        self._active.remove(transfer)
        transfer.remaining = 0.0
        transfer.finished_at = self.sim.now
        self._completed.append(transfer)
        assert transfer.done is not None
        transfer.done.succeed(transfer)

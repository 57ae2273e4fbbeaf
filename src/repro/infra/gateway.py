"""Science gateways: community accounts and the attribute-tagging problem.

A science gateway (nanoHUB, CIPRES, the CCSM portal, …) fronts the grid for a
large community of end users who never hold TeraGrid accounts: every job the
gateway submits runs under one *community account*.  To central accounting,
10,000 gateway users are one username — unless the gateway attaches a
*gateway user attribute* to each job, which is exactly the instrumentation
the paper argues for.

``tagging_coverage`` models partial adoption of that instrumentation: the
fraction of submitted jobs that carry the end-user attribute.  Experiment F6
sweeps it and reads the measured gateway-user count off the classifier.

Gateways also *degrade gracefully* when their backend site is in an unplanned
outage: a request arriving while the site is down is queued in a bounded
backlog (the portal keeps accepting clicks) and drained FIFO when the site
recovers, or shed when the backlog is full / no simulator was attached.
Experiment A4 reads the queued/shed/drained counters to show the modality
riding out outages that kill direct batch submission.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.infra.job import AttributeKeys, Job, SubmissionInterface
from repro.infra.site import ResourceProvider
from repro.sim import Simulator

__all__ = ["ScienceGateway"]


class ScienceGateway:
    """One gateway: a portal identity, a community account, and its users."""

    def __init__(
        self,
        name: str,
        community_user: str,
        community_account: str,
        rng: np.random.Generator,
        tagging_coverage: float = 1.0,
        sim: Optional[Simulator] = None,
        max_backlog: int = 0,
    ) -> None:
        if not (0.0 <= tagging_coverage <= 1.0):
            raise ValueError(
                f"tagging_coverage must be in [0, 1], got {tagging_coverage}"
            )
        if max_backlog < 0:
            raise ValueError(f"max_backlog must be >= 0, got {max_backlog}")
        self.name = name
        self.community_user = community_user
        self.community_account = community_account
        self.rng = rng
        self.tagging_coverage = tagging_coverage
        #: simulator handle, needed only to drain the outage backlog
        self.sim = sim
        #: how many requests may wait out a backend outage (0 = shed all)
        self.max_backlog = max_backlog
        #: requests accepted during an outage: (site, submit kwargs) FIFO
        self.backlog: deque[tuple] = deque()
        #: distinct end users who have run at least one job (ground truth)
        self.end_users_served: set[str] = set()
        self.jobs_submitted = 0
        self.jobs_tagged = 0
        self.requests_queued = 0
        self.requests_shed = 0
        self.backlog_submitted = 0
        self._draining: set[str] = set()

    def submit(
        self,
        site: ResourceProvider,
        gateway_user: str,
        cores: int,
        walltime: float,
        true_runtime: float,
        will_fail: bool = False,
        true_modality: str | None = None,
        extra_attributes: dict | None = None,
    ) -> Optional[Job]:
        """Run one job on behalf of ``gateway_user`` under the community account.

        Returns the job, or ``None`` if the backend is down and the request
        was queued or shed (see :meth:`request` for which).
        """
        job, _status = self.request(
            site,
            gateway_user,
            cores,
            walltime,
            true_runtime,
            will_fail=will_fail,
            true_modality=true_modality,
            extra_attributes=extra_attributes,
        )
        return job

    def request(
        self,
        site: ResourceProvider,
        gateway_user: str,
        cores: int,
        walltime: float,
        true_runtime: float,
        will_fail: bool = False,
        true_modality: str | None = None,
        extra_attributes: dict | None = None,
    ) -> tuple[Optional[Job], str]:
        """Submit now, queue for later, or shed — depending on backend health.

        Returns ``(job, status)`` with status one of ``"submitted"`` (job is
        in the batch system), ``"queued"`` (backend down, request held in the
        backlog and submitted automatically on recovery) or ``"shed"``
        (backend down, backlog full or unavailable — the click is lost).
        """
        if not getattr(site, "up", True):
            spec = dict(
                gateway_user=gateway_user,
                cores=cores,
                walltime=walltime,
                true_runtime=true_runtime,
                will_fail=will_fail,
                true_modality=true_modality,
                extra_attributes=extra_attributes,
            )
            if self.sim is not None and len(self.backlog) < self.max_backlog:
                self.backlog.append((site, spec))
                self.requests_queued += 1
                self._arm_drain(site)
                return None, "queued"
            self.requests_shed += 1
            return None, "shed"
        return self._do_submit(
            site,
            gateway_user,
            cores,
            walltime,
            true_runtime,
            will_fail=will_fail,
            true_modality=true_modality,
            extra_attributes=extra_attributes,
        ), "submitted"

    def _do_submit(
        self,
        site: ResourceProvider,
        gateway_user: str,
        cores: int,
        walltime: float,
        true_runtime: float,
        will_fail: bool = False,
        true_modality: str | None = None,
        extra_attributes: dict | None = None,
    ) -> Job:
        """The job's accounting ``user`` is the community user; the end user
        is visible to accounting only when the tagging coin-flip succeeds."""
        attributes: dict = {
            AttributeKeys.SUBMIT_INTERFACE: SubmissionInterface.GATEWAY.value,
            AttributeKeys.GATEWAY_NAME: self.name,
        }
        tagged = bool(self.rng.random() < self.tagging_coverage)
        if tagged:
            attributes[AttributeKeys.GATEWAY_USER] = gateway_user
        if extra_attributes:
            attributes.update(extra_attributes)
        job = Job(
            user=self.community_user,
            account=self.community_account,
            cores=cores,
            walltime=walltime,
            true_runtime=true_runtime,
            job_id=site.sim.next_id("job"),
            will_fail=will_fail,
            attributes=attributes,
            true_modality=true_modality,
            true_user=gateway_user,
        )
        self.end_users_served.add(gateway_user)
        self.jobs_submitted += 1
        if tagged:
            self.jobs_tagged += 1
        site.submit(job)
        return job

    # -- outage backlog -----------------------------------------------------
    def _arm_drain(self, site: ResourceProvider) -> None:
        if site.name in self._draining:
            return
        self._draining.add(site.name)
        assert self.sim is not None
        self.sim.process(
            self._drain(site), name=f"gateway-{self.name}-drain-{site.name}"
        )

    def _drain(self, site: ResourceProvider):
        yield site.wait_until_up()
        self._draining.discard(site.name)
        # Submit this site's held requests in arrival order; requests bound
        # for other (still-down) sites keep their backlog positions.
        keep: deque[tuple] = deque()
        while self.backlog:
            queued_site, spec = self.backlog.popleft()
            if queued_site is not site:
                keep.append((queued_site, spec))
                continue
            self._do_submit(site, **spec)
            self.backlog_submitted += 1
        self.backlog.extend(keep)

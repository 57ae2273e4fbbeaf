"""Behaviour processes: one simulation process per user, per modality.

Each process loops forever (the harness bounds the run with a horizon):
think for an exponential while, then perform one *session* of the user's
modality.  All stochastic draws come from a per-user named stream, so adding
users or modalities never perturbs existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from repro.core.modalities import Modality
from repro.infra.coalloc import CoAllocator
from repro.infra.gateway import ScienceGateway
from repro.infra.job import AttributeKeys, Job, JobState
from repro.infra.metascheduler import Metascheduler
from repro.infra.resilience import saved_progress
from repro.infra.site import ResourceProvider, SiteDownError
from repro.infra.submission import GramSubmitter, LoginSubmitter
from repro.infra.workflow import TaskGraph, WorkflowEngine
from repro.sim import AllOf, AnyOf, RandomStreams, Simulator
from repro.sim.distributions import bounded_lognormal, log2_cores
from repro.users.population import Population, User
from repro.users.profiles import DEFAULT_PROFILES, BehaviorProfile

__all__ = [
    "DEFAULT_RECOVERY",
    "RecoveryPolicy",
    "SimulationContext",
    "no_recovery",
    "sample_job",
    "start_behaviors",
]

#: fraction of CLI submissions that go through GRAM middleware
GRAM_FRACTION = 0.15
#: fraction of batch sessions sent somewhere other than the home site
ROAMING_FRACTION = 0.15
#: fraction of a batch user's sessions that are porting/testing work
BATCH_PORTING_SESSION_PROB = 0.12


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a user of one modality reacts to infrastructure failure.

    ``resubmit`` governs whether lost work is retried at all;
    ``max_attempts`` is the give-up threshold (total submission attempts per
    unit of work — exceeding it records an *abandonment*).  Retries wait an
    exponential backoff (``backoff_base * backoff_factor**(attempt-1)``).
    ``checkpoint_interval`` enables checkpoint-resume: only the progress
    since the last checkpoint is lost, and each restart pays
    ``restart_overhead`` of machine time (see :func:`saved_progress`).
    ``None`` means restart from scratch.
    """

    resubmit: bool = True
    max_attempts: int = 3
    backoff_base: float = 15 * 60.0
    backoff_factor: float = 2.0
    checkpoint_interval: Optional[float] = None
    restart_overhead: float = 5 * 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be nonnegative and non-shrinking")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive or None")
        if self.restart_overhead < 0:
            raise ValueError("restart_overhead must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Deterministic wait before retry number ``attempt`` (1-based)."""
        return self.backoff_base * self.backoff_factor ** max(attempt - 1, 0)


#: The recovery discipline each modality realistically ran with: batch
#: users resubmit from their submit scripts; porting loops retry once and
#: move on; gateways auto-retry on the user's behalf; ensembles re-run the
#: lost member; viz users walk away (an attended session cannot wait); and
#: capability (coupled) jobs checkpoint — at their scale restarting from
#: scratch is not an option.
DEFAULT_RECOVERY: dict[Modality, RecoveryPolicy] = {
    Modality.BATCH: RecoveryPolicy(max_attempts=4, backoff_base=30 * 60.0),
    Modality.EXPLORATORY: RecoveryPolicy(max_attempts=2, backoff_base=10 * 60.0),
    Modality.GATEWAY: RecoveryPolicy(max_attempts=3, backoff_base=15 * 60.0),
    Modality.ENSEMBLE: RecoveryPolicy(max_attempts=3, backoff_base=15 * 60.0),
    Modality.VIZ: RecoveryPolicy(resubmit=False, max_attempts=1),
    Modality.COUPLED: RecoveryPolicy(
        max_attempts=3,
        backoff_base=30 * 60.0,
        checkpoint_interval=2 * 3600.0,
        restart_overhead=10 * 60.0,
    ),
}


def no_recovery() -> dict[Modality, RecoveryPolicy]:
    """Outage-aware but fatalistic: failures are tolerated, never retried."""
    return {
        modality: RecoveryPolicy(resubmit=False, max_attempts=1)
        for modality in Modality
    }


@dataclass
class SimulationContext:
    """Everything behaviour processes need to act on the federation."""

    sim: Simulator
    streams: RandomStreams
    providers: list[ResourceProvider]
    metascheduler: Metascheduler
    gateways: dict[str, ScienceGateway]
    workflow_engine: WorkflowEngine
    coallocator: CoAllocator
    login: LoginSubmitter = dataclass_field(default_factory=LoginSubmitter)
    gram: GramSubmitter = dataclass_field(default_factory=GramSubmitter)
    #: gateway end users become active uniformly over this many seconds
    #: (0 = everyone active from the start); models gateway adoption growth
    gateway_adoption_ramp: float = 0.0
    #: WAN used for input staging (None disables data movement modeling)
    network: Optional["object"] = None
    #: per-modality reaction to infrastructure failure; None = legacy
    #: behaviour (no outage awareness, byte-identical to pre-resilience runs)
    recovery: Optional[dict[Modality, RecoveryPolicy]] = None
    #: per-modality counters fed by the recovery machinery (keys are
    #: ``Modality.value`` strings so they serialize cleanly)
    resubmissions: dict[str, int] = dataclass_field(default_factory=dict)
    abandonments: dict[str, int] = dataclass_field(default_factory=dict)
    deferrals: dict[str, int] = dataclass_field(default_factory=dict)

    def provider(self, name: str) -> ResourceProvider:
        for provider in self.providers:
            if provider.name == name:
                return provider
        raise KeyError(f"unknown provider {name!r}")

    def recovery_policy(self, modality: Modality) -> Optional[RecoveryPolicy]:
        if self.recovery is None:
            return None
        return self.recovery.get(modality)

    def count(self, counter: dict[str, int], modality: Modality) -> None:
        counter[modality.value] = counter.get(modality.value, 0) + 1


def sample_job(
    rng: np.random.Generator,
    profile: BehaviorProfile,
    user: User,
    job_id: int,
    max_cores_cap: Optional[int] = None,
    attributes: Optional[dict] = None,
) -> Job:
    """Draw one job from a profile (cores, runtime, walltime, failure)."""
    cores_cap = profile.max_cores
    if max_cores_cap is not None:
        cores_cap = min(cores_cap, max_cores_cap)
    cores = log2_cores(
        rng,
        profile.min_cores,
        max(cores_cap, profile.min_cores),
        profile.mean_log2_cores,
        profile.sigma_log2_cores,
    )
    runtime = bounded_lognormal(
        rng,
        profile.runtime_median,
        profile.runtime_sigma,
        profile.runtime_min,
        profile.runtime_max,
    )
    will_fail = bool(rng.random() < profile.failure_prob)
    if will_fail:
        # Failures happen early in the run.
        runtime *= float(rng.uniform(0.02, 0.5))
        runtime = max(runtime, 10.0)
    if rng.random() < profile.underestimate_prob:
        walltime = runtime * float(rng.uniform(0.5, 0.95))
    else:
        walltime = runtime * profile.walltime_pad
    return Job(
        user=user.user_id,
        account=user.account,
        cores=cores,
        walltime=max(walltime, 60.0),
        true_runtime=runtime,
        job_id=job_id,
        will_fail=will_fail,
        attributes=dict(attributes or {}),
        true_modality=profile.modality.value,
        true_user=user.user_id,
    )


def _think(ctx: SimulationContext, rng: np.random.Generator, mean: float):
    return ctx.sim.timeout(float(rng.exponential(mean)))


def _submit_cli(ctx: SimulationContext, rng, site: ResourceProvider, job: Job):
    """Submit via login node or (sometimes) GRAM middleware."""
    if rng.random() < GRAM_FRACTION:
        ctx.gram.submit(site, job)
    else:
        ctx.login.submit(site, job)


def _session_site(ctx: SimulationContext, rng, user: User) -> ResourceProvider:
    """The user's home site, or occasionally somewhere else entirely."""
    home = ctx.provider(user.home_site)
    if len(ctx.providers) > 1 and rng.random() < ROAMING_FRACTION:
        others = [p for p in ctx.providers if p.name != user.home_site]
        return others[int(rng.integers(len(others)))]
    return home


def _stage_inputs(ctx: SimulationContext, rng, user: User,
                  site: ResourceProvider, modality: Modality):
    """Move the session's input data to ``site`` if it lives elsewhere.

    Input sizes are heavy-tailed (tens of GB median); same-site sessions pay
    only a local copy.  Returns the transfer event, or None when no network
    is modelled.
    """
    if ctx.network is None:
        return None
    from repro.sim.distributions import bounded_lognormal

    size = bounded_lognormal(rng, 2e10, 1.5, 1e8, 2e12)
    return ctx.network.transfer(
        user.home_site, site.name, size, tag=modality.value
    )


# ----------------------------------------------------------------- recovery


def _infra_failed(job: Job) -> bool:
    """FAILED without being destined to fail: the machine ate it."""
    return job.state is JobState.FAILED and not job.will_fail


def _recovery_rng(ctx: SimulationContext, user: User):
    """The user's dedicated recovery stream.

    Backoffs and retry decisions draw here, never from the user's main
    behaviour stream — so enabling recovery can never perturb the job
    *workload* (sizes, runtimes, session timing) drawn by legacy code.
    """
    return ctx.streams.stream(f"recovery:{user.user_id}")


def _clone_for_resubmit(
    job: Job, job_id: int, remaining: float, overhead: float
) -> Job:
    """The job a user resubmits after an infrastructure loss.

    ``remaining`` is the work still to do (checkpoint-adjusted); the restart
    pays ``overhead`` of machine time on top.  The resubmission keeps the
    original script's walltime request and ground-truth identity.
    """
    runtime = max(remaining + overhead, 10.0)
    return Job(
        user=job.user,
        account=job.account,
        cores=job.cores,
        walltime=max(job.walltime, runtime * 1.1),
        true_runtime=runtime,
        job_id=job_id,
        will_fail=False,
        attributes=dict(job.attributes),
        true_modality=job.true_modality,
        true_user=job.true_user,
    )


def _recover_job(
    ctx: SimulationContext,
    user: User,
    site: ResourceProvider,
    job: Job,
    policy: RecoveryPolicy,
    modality: Modality,
):
    """Run one job to completion under a recovery policy (a sub-process).

    Submission rejections during an outage are waited out
    (:class:`SiteDownError` → wait for the site, retry); infrastructure
    kills trigger resubmission with backoff, checkpoint-adjusted remaining
    work, and a give-up threshold that records an abandonment.  The process
    value is the final job, so callers can wait on the process exactly as
    they would on a completion event.
    """
    rng = _recovery_rng(ctx, user)
    attempts = 0
    current = job
    while True:
        try:
            _submit_cli(ctx, rng, site, current)
        except SiteDownError:
            ctx.count(ctx.deferrals, modality)
            if not policy.resubmit and attempts >= 1:
                ctx.count(ctx.abandonments, modality)
                return current
            yield site.wait_until_up()
            continue
        attempts += 1
        yield site.scheduler.wait_for(current)
        if not _infra_failed(current):
            return current
        saved = saved_progress(
            current.elapsed or 0.0, policy.checkpoint_interval
        )
        remaining = max(current.true_runtime - saved, 0.0)
        if (
            not policy.resubmit
            or attempts >= policy.max_attempts
            or remaining <= 1.0
        ):
            if remaining > 1.0:
                ctx.count(ctx.abandonments, modality)
            return current
        ctx.count(ctx.resubmissions, modality)
        yield ctx.sim.timeout(policy.backoff(attempts))
        current = _clone_for_resubmit(
            current, ctx.sim.next_id("job"), remaining, policy.restart_overhead
        )


def _submit_and_wait(
    ctx: SimulationContext,
    rng,
    user: User,
    site: ResourceProvider,
    job: Job,
    modality: Modality,
):
    """Submit ``job`` and return something yieldable for its completion.

    Without a recovery policy this is *exactly* the legacy sequence —
    synchronous ``_submit_cli`` (drawing the GRAM coin from the caller's
    stream) and the scheduler's completion event — so pre-resilience runs
    stay byte-identical.  With a policy, a recovery sub-process owns the
    job's whole retry lifecycle and the caller waits on the process.
    """
    policy = ctx.recovery_policy(modality)
    if policy is None:
        _submit_cli(ctx, rng, site, job)
        return site.scheduler.wait_for(job)
    return ctx.sim.process(
        _recover_job(ctx, user, site, job, policy, modality),
        name=f"recover-{job.job_id}",
    )


def _gateway_request(
    ctx: SimulationContext,
    user: User,
    gateway: ScienceGateway,
    site: ResourceProvider,
    spec: Job,
    policy: RecoveryPolicy,
    modality: Modality,
):
    """One gateway request under recovery (a sub-process).

    ``queued`` requests belong to the portal's backlog — it submits them on
    recovery, the user moves on (a deferral).  ``shed`` requests are retried
    with backoff up to the give-up threshold; infrastructure kills of an
    accepted job are re-requested the same way.
    """
    rng = _recovery_rng(ctx, user)
    attempts = 0
    remaining = spec.true_runtime
    while True:
        attempts += 1
        job, status = gateway.request(
            site,
            gateway_user=user.user_id,
            cores=spec.cores,
            walltime=spec.walltime,
            true_runtime=max(remaining, 10.0),
            will_fail=spec.will_fail if attempts == 1 else False,
            true_modality=modality.value,
        )
        if status == "queued":
            ctx.count(ctx.deferrals, modality)
            return None
        if status == "submitted":
            assert job is not None
            yield site.scheduler.wait_for(job)
            if not _infra_failed(job):
                return job
            saved = saved_progress(
                job.elapsed or 0.0, policy.checkpoint_interval
            )
            remaining = max(remaining - saved, 0.0)
            if remaining <= 1.0:
                return job
        if not policy.resubmit or attempts >= policy.max_attempts:
            ctx.count(ctx.abandonments, modality)
            return job
        ctx.count(ctx.resubmissions, modality)
        yield ctx.sim.timeout(policy.backoff(attempts))


# ---------------------------------------------------------------- behaviours


def batch_user(ctx: SimulationContext, user: User, profile: BehaviorProfile):
    """Production campaigns: a few hours-long jobs per session, wait, repeat.

    Real production users are not pure: a fraction of their sessions is
    porting/testing work (new code version, new machine).  Those sessions
    use the exploratory profile and carry exploratory ground truth, which is
    what makes the residual batch/exploratory split genuinely fallible for
    the classifier (it labels a user's residual jobs as a block).
    """
    rng = ctx.streams.stream(f"user:{user.user_id}")
    porting_profile = DEFAULT_PROFILES[Modality.EXPLORATORY]
    while True:
        yield _think(ctx, rng, profile.think_time_mean)
        site = _session_site(ctx, rng, user)
        stage = _stage_inputs(ctx, rng, user, site, Modality.BATCH)
        if stage is not None:
            yield stage
        if rng.random() < BATCH_PORTING_SESSION_PROB:
            for _ in range(int(rng.integers(1, 5))):
                job = sample_job(
                    rng,
                    porting_profile,
                    user,
                    ctx.sim.next_id("job"),
                    max_cores_cap=site.cluster.total_cores,
                )
                yield _submit_and_wait(
                    ctx, rng, user, site, job, porting_profile.modality
                )
                yield ctx.sim.timeout(float(rng.uniform(60.0, 600.0)))
            continue
        lo, hi = profile.jobs_per_session
        n_jobs = int(rng.integers(lo, hi + 1))
        waits = []
        for _ in range(n_jobs):
            job = sample_job(
                rng, profile, user, ctx.sim.next_id("job"),
                max_cores_cap=site.cluster.total_cores,
            )
            waits.append(
                _submit_and_wait(ctx, rng, user, site, job, profile.modality)
            )
        yield AllOf(ctx.sim, waits)


def exploratory_user(ctx: SimulationContext, user: User, profile: BehaviorProfile):
    """Porting: sequential edit-compile-submit loops of tiny failing jobs."""
    rng = ctx.streams.stream(f"user:{user.user_id}")
    while True:
        yield _think(ctx, rng, profile.think_time_mean)
        site = ctx.provider(user.home_site)  # porting sticks to one machine
        lo, hi = profile.jobs_per_session
        for _ in range(int(rng.integers(lo, hi + 1))):
            job = sample_job(
                rng, profile, user, ctx.sim.next_id("job"),
                max_cores_cap=site.cluster.total_cores,
            )
            yield _submit_and_wait(ctx, rng, user, site, job, profile.modality)
            # look at the output, tweak, resubmit
            yield ctx.sim.timeout(float(rng.uniform(60.0, 600.0)))


def gateway_user(ctx: SimulationContext, user: User, profile: BehaviorProfile):
    """Portal sessions: the gateway submits on the user's behalf."""
    rng = ctx.streams.stream(f"user:{user.user_id}")
    assert user.gateway is not None
    gateway = ctx.gateways[user.gateway]
    if ctx.gateway_adoption_ramp > 0:
        # This user discovers the gateway partway through the campaign.
        yield ctx.sim.timeout(float(rng.uniform(0, ctx.gateway_adoption_ramp)))
    while True:
        yield _think(ctx, rng, profile.think_time_mean)
        site = _session_site(ctx, rng, user)
        lo, hi = profile.jobs_per_session
        waits = []
        policy = ctx.recovery_policy(profile.modality)
        for _ in range(int(rng.integers(lo, hi + 1))):
            spec = sample_job(
                rng, profile, user, ctx.sim.next_id("job"),
                max_cores_cap=site.cluster.total_cores,
            )
            if policy is not None:
                waits.append(
                    ctx.sim.process(
                        _gateway_request(
                            ctx, user, gateway, site, spec, policy,
                            profile.modality,
                        ),
                        name=f"gw-request-{user.user_id}",
                    )
                )
                continue
            job = gateway.submit(
                site,
                gateway_user=user.user_id,
                cores=spec.cores,
                walltime=spec.walltime,
                true_runtime=spec.true_runtime,
                will_fail=spec.will_fail,
                true_modality=profile.modality.value,
            )
            waits.append(site.scheduler.wait_for(job))
        yield AllOf(ctx.sim, waits)


def ensemble_user(ctx: SimulationContext, user: User, profile: BehaviorProfile):
    """Sweeps: either a DAG through the workflow engine or a raw burst."""
    rng = ctx.streams.stream(f"user:{user.user_id}")
    while True:
        yield _think(ctx, rng, profile.think_time_mean)
        width = int(rng.integers(profile.sweep_width[0], profile.sweep_width[1] + 1))
        template = sample_job(rng, profile, user, ctx.sim.next_id("job"))
        if rng.random() < profile.workflow_prob:
            graph = TaskGraph.parameter_sweep(
                f"{user.user_id}-sweep",
                width=width,
                cores=template.cores,
                walltime=template.walltime,
                true_runtime=template.true_runtime,
                output_bytes=1e8,
            )
            proc = ctx.workflow_engine.run(
                graph,
                user=user.user_id,
                account=user.account,
                true_modality=profile.modality.value,
            )
            yield proc
        else:
            site = _session_site(ctx, rng, user)
            ensemble_id = f"ens-{ctx.sim.next_id('ensemble')}"
            waits = []
            for _ in range(width):
                job = sample_job(
                    rng,
                    profile,
                    user,
                    ctx.sim.next_id("job"),
                    max_cores_cap=site.cluster.total_cores,
                    attributes={AttributeKeys.ENSEMBLE_ID: ensemble_id},
                )
                # Sweep members share the template's size (that is what
                # makes it a sweep) but keep their own runtimes.
                job.cores = min(template.cores, site.cluster.total_cores)
                waits.append(
                    _submit_and_wait(
                        ctx, rng, user, site, job, profile.modality
                    )
                )
                yield ctx.sim.timeout(float(rng.uniform(5.0, 60.0)))
            yield AllOf(ctx.sim, waits)


def viz_user(ctx: SimulationContext, user: User, profile: BehaviorProfile):
    """Interactive sessions: needed now; cancelled if the queue is slow."""
    rng = ctx.streams.stream(f"user:{user.user_id}")
    while True:
        yield _think(ctx, rng, profile.think_time_mean)
        site = ctx.provider(user.home_site)
        job = sample_job(
            rng,
            profile,
            user,
            ctx.sim.next_id("job"),
            max_cores_cap=site.cluster.total_cores,
            attributes={AttributeKeys.INTERACTIVE: True},
        )
        if ctx.recovery is not None:
            # An attended session cannot be queued behind an outage: if the
            # site is down right now, the viz user simply gives up on it.
            try:
                _submit_cli(ctx, rng, site, job)
            except SiteDownError:
                ctx.count(ctx.abandonments, profile.modality)
                continue
        else:
            _submit_cli(ctx, rng, site, job)
        completion = site.scheduler.wait_for(job)
        patience = ctx.sim.timeout(profile.patience)
        yield AnyOf(ctx.sim, [completion, patience])
        if job.start_time is None and not job.state.is_terminal:
            # Queue too slow for an attended session: walk away.
            site.cancel(job)
        yield completion
        if ctx.recovery is not None and _infra_failed(job):
            # The session died under the user mid-flight; nothing to resume.
            ctx.count(ctx.abandonments, profile.modality)


def coupled_user(ctx: SimulationContext, user: User, profile: BehaviorProfile):
    """Rare co-allocated runs across the largest machines."""
    rng = ctx.streams.stream(f"user:{user.user_id}")
    while True:
        yield _think(ctx, rng, profile.think_time_mean)
        n_sites = int(rng.integers(profile.n_sites[0], profile.n_sites[1] + 1))
        n_sites = min(n_sites, len(ctx.providers))
        if n_sites < 2:
            continue  # cannot couple on a single-site federation
        ranked = sorted(
            ctx.providers, key=lambda p: -p.cluster.total_cores
        )[:n_sites]
        # Every part needs the input data set on its local filesystem.
        stages = [
            _stage_inputs(ctx, rng, user, site, Modality.COUPLED)
            for site in ranked
        ]
        stages = [s for s in stages if s is not None]
        if stages:
            yield AllOf(ctx.sim, stages)
        template = sample_job(rng, profile, user, ctx.sim.next_id("job"))
        policy = ctx.recovery_policy(profile.modality)
        if policy is None:
            parts = [
                (site, min(template.cores, site.cluster.total_cores))
                for site in ranked
            ]
            proc = ctx.coallocator.launch(
                user=user.user_id,
                account=user.account,
                parts=parts,
                walltime=template.walltime,
                single_site_runtime=template.true_runtime,
                true_modality=profile.modality.value,
            )
            yield proc
            continue
        # Capability runs under recovery: retry the whole coupled launch
        # with checkpoint-adjusted remaining work, over sites that are up.
        remaining = template.true_runtime
        attempts = 0
        overhead = ctx.coallocator.wan_overhead_factor
        while remaining > 1.0:
            up_sites = [p for p in ranked if p.up]
            if len(up_sites) < 2:
                ctx.count(ctx.abandonments, profile.modality)
                break
            attempts += 1
            parts = [
                (site, min(template.cores, site.cluster.total_cores))
                for site in up_sites
            ]
            proc = ctx.coallocator.launch(
                user=user.user_id,
                account=user.account,
                parts=parts,
                walltime=template.walltime,
                single_site_runtime=max(
                    remaining + policy.restart_overhead, 10.0
                ),
                true_modality=profile.modality.value,
            )
            result = yield proc
            if result.succeeded:
                break
            lost_to_infra = any(
                _infra_failed(j) or j.state is JobState.CREATED
                for j in result.jobs
            )
            if not lost_to_infra:
                break  # cancelled / application outcome: not ours to retry
            coupled_elapsed = max(
                (j.elapsed or 0.0) for j in result.jobs
            )
            saved = saved_progress(
                coupled_elapsed / overhead, policy.checkpoint_interval
            )
            remaining = max(remaining - saved, 0.0)
            if (
                not policy.resubmit
                or attempts >= policy.max_attempts
                or remaining <= 1.0
            ):
                if remaining > 1.0:
                    ctx.count(ctx.abandonments, profile.modality)
                break
            ctx.count(ctx.resubmissions, profile.modality)
            yield ctx.sim.timeout(policy.backoff(attempts))


_BEHAVIORS = {
    Modality.BATCH: batch_user,
    Modality.EXPLORATORY: exploratory_user,
    Modality.GATEWAY: gateway_user,
    Modality.ENSEMBLE: ensemble_user,
    Modality.VIZ: viz_user,
    Modality.COUPLED: coupled_user,
}


def start_behaviors(
    ctx: SimulationContext,
    population: Population,
    profiles: Optional[dict[Modality, BehaviorProfile]] = None,
) -> None:
    """Spawn one behaviour process per user, in ``population.users`` order.

    Every user starts, so all of them share one simulator and its
    schedulers' queues.
    """
    profiles = profiles or DEFAULT_PROFILES
    for user in population.users:
        behavior = _BEHAVIORS[user.modality]
        ctx.sim.process(
            behavior(ctx, user, profiles[user.modality]),
            name=f"{user.modality.value}:{user.user_id}",
        )

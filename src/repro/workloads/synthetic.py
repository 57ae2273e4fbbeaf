"""End-to-end scenario runner: federation + population + behaviours → records.

:func:`run_scenario` is the workhorse every experiment builds on.  It wires
the full substrate, runs the simulation for a configured horizon, drains the
accounting feeds and returns both the *observable* products (the central
accounting DB) and the *ground truth* (per-job and per-identity modality
maps) needed to score the measurement system.

Two campaign-sharing companions live here as well:

* :class:`CampaignKey` — the canonical identity of one shared campaign
  (``days=90`` and ``days=90.0`` are the *same* campaign), used by the
  in-process memo and the on-disk artifact store alike;
* :class:`CampaignArtifact` — a measurement-sufficient snapshot of a
  :class:`ScenarioResult`: everything the table/figure experiments read
  (records, truth maps, community accounts, accounting totals, WAN
  transfers) without the live :class:`~repro.sim.Simulator` object graph,
  so one worker's simulation can be serialized once and fanned out to the
  rest of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Type

import repro.infra as infra
from repro.core.modalities import Modality
from repro.infra.accounting import CentralAccountingDB, UsageRecord
from repro.infra.amie import (
    AmieIngestEndpoint,
    IngestRecoveryPolicy,
    PacketFaultRegime,
    ReconciliationReport,
    ResilientAmieFeed,
)
from repro.infra.metascheduler import SelectionStrategy
from repro.infra.resilience import OutagePolicy, SiteOutageInjector
from repro.infra.scheduler.base import BatchScheduler
from repro.infra.scheduler.backfill import EasyBackfillScheduler
from repro.infra.units import DAY, HOUR, MINUTE
from repro.obs.metrics import MetricsRegistry
from repro.sim import RandomStreams, Simulator
from repro.users.behavior import (
    RecoveryPolicy,
    SimulationContext,
    start_behaviors,
)
from repro.users.population import (
    Population,
    PopulationSpec,
    build_population,
    cell_members,
)
from repro.users.profiles import BehaviorProfile
from repro.workloads.scenarios import SiteSpec, federation_specs

__all__ = [
    "CAMPAIGN_DAYS",
    "CAMPAIGN_POPULATION_SCALE",
    "CAMPAIGN_SCALE",
    "CAMPAIGN_SEED",
    "CampaignArtifact",
    "CampaignKey",
    "ScenarioConfig",
    "ScenarioResult",
    "TransferSummary",
    "run_scenario",
]

#: The canonical campaign most table experiments share (DESIGN.md §4).
CAMPAIGN_DAYS = 90.0
CAMPAIGN_SEED = 1
CAMPAIGN_SCALE = "small"
CAMPAIGN_POPULATION_SCALE = 0.05


@dataclass(frozen=True)
class ScenarioConfig:
    """All knobs of one simulated campaign."""

    scale: str = "small"
    days: float = 30.0
    seed: int = 0
    population: PopulationSpec = field(default_factory=lambda: PopulationSpec(scale=0.05))
    gateway_tagging_coverage: float = 1.0
    scheduler_factory: Type[BatchScheduler] | Callable[..., BatchScheduler] = (
        EasyBackfillScheduler
    )
    metascheduler_strategy: SelectionStrategy = SelectionStrategy.PREDICTED_START
    amie_interval: float = 6 * HOUR
    info_publish_interval: float = 15 * 60.0
    profiles: Optional[dict[Modality, BehaviorProfile]] = None
    sites: Optional[tuple[SiteSpec, ...]] = None
    #: gateway end users activate uniformly over this many days (0 = at once)
    gateway_adoption_ramp_days: float = 0.0
    #: unplanned-outage process per site (None = no outages, legacy runs)
    outages: Optional[OutagePolicy] = None
    #: how long the info service keeps serving pre-outage state for a dead site
    outage_propagation_lag: float = 10 * MINUTE
    #: per-modality reaction to infrastructure failure (None = legacy)
    recovery: Optional[dict[Modality, RecoveryPolicy]] = None
    #: gateway requests held through a backend outage (0 = shed them all)
    gateway_backlog: int = 0
    #: fault climate of the site→center AMIE exchange (None/disabled = the
    #: historical lossless in-process call, byte-identical to legacy runs)
    packet_faults: Optional[PacketFaultRegime] = None
    #: recovery discipline against ``packet_faults`` (None = full defaults:
    #: retransmit with backoff + end-of-run reconciliation re-sends)
    ingest_recovery: Optional[IngestRecoveryPolicy] = None
    #: population cell ``(cell, cells)`` of the multi-cell model: the full
    #: population is built identically in every cell, but only users whose
    #: ordinal satisfies ``ordinal % cells == cell`` run behavior processes.
    #: ``None`` simulates everyone in one coupled run.
    shard: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        # Fail at construction with a nameable knob, not downstream with a
        # zero-length run, a silent no-tagging campaign, or a ValueError
        # deep inside the gateway layer.
        if not self.days > 0:
            raise ValueError(f"days must be positive, got {self.days}")
        if not (0.0 <= self.gateway_tagging_coverage <= 1.0):
            raise ValueError(
                "gateway_tagging_coverage must be in [0, 1], "
                f"got {self.gateway_tagging_coverage}"
            )
        if self.gateway_backlog < 0:
            raise ValueError(
                f"gateway_backlog must be >= 0, got {self.gateway_backlog}"
            )
        if self.gateway_adoption_ramp_days < 0:
            raise ValueError(
                "gateway_adoption_ramp_days must be >= 0, "
                f"got {self.gateway_adoption_ramp_days}"
            )
        if self.amie_interval <= 0:
            raise ValueError(
                f"amie_interval must be positive, got {self.amie_interval}"
            )
        if self.info_publish_interval <= 0:
            raise ValueError(
                "info_publish_interval must be positive, "
                f"got {self.info_publish_interval}"
            )
        if self.outage_propagation_lag < 0:
            raise ValueError(
                "outage_propagation_lag must be >= 0, "
                f"got {self.outage_propagation_lag}"
            )
        if self.packet_faults is not None and not isinstance(
            self.packet_faults, PacketFaultRegime
        ):
            raise ValueError(
                f"packet_faults must be a PacketFaultRegime, "
                f"got {self.packet_faults!r}"
            )
        if self.ingest_recovery is not None and not isinstance(
            self.ingest_recovery, IngestRecoveryPolicy
        ):
            raise ValueError(
                f"ingest_recovery must be an IngestRecoveryPolicy, "
                f"got {self.ingest_recovery!r}"
            )
        if self.shard is not None:
            cell, cells = self.shard
            if not (
                isinstance(cell, int) and isinstance(cells, int)
                and cells >= 1 and 0 <= cell < cells
            ):
                raise ValueError(
                    f"shard must be (cell, cells) with 0 <= cell < cells, "
                    f"got {self.shard!r}"
                )

    @property
    def horizon(self) -> float:
        return self.days * DAY

    @property
    def faulty_ingest(self) -> bool:
        """Whether the AMIE exchange runs over the faulty transport."""
        return self.packet_faults is not None and self.packet_faults.enabled


@dataclass
class ScenarioResult:
    """Everything a measurement experiment needs from one run."""

    config: ScenarioConfig
    central: CentralAccountingDB
    population: Population
    providers: list
    gateways: dict
    sim: Simulator
    ledger: infra.AllocationLedger
    network: infra.Network
    metascheduler: Optional[infra.Metascheduler] = None
    context: Optional[SimulationContext] = None
    injectors: list = field(default_factory=list)
    #: central receive side of the faulty AMIE exchange (None = lossless run)
    amie_endpoint: Optional[AmieIngestEndpoint] = None
    #: end-of-run audit outcome (None = lossless run)
    reconciliation: Optional[ReconciliationReport] = None
    #: the run-wide metric namespace every component registered into
    #: (``ingest.*``, ``gateway.*``, ``resilience.*``, ``amie.*``); None only
    #: for results constructed by hand in tests
    metrics: Optional[MetricsRegistry] = None

    @property
    def records(self) -> list[UsageRecord]:
        return self.central.all_records()

    @property
    def community_accounts(self) -> set[str]:
        return {
            account for _user, account in self.population.community_accounts.values()
        }

    def truth_by_job(self) -> dict[int, Modality]:
        """Ground-truth modality of every job with a usage record."""
        truth: dict[int, Modality] = {}
        for provider in self.providers:
            for job in provider.scheduler.completed:
                if job.true_modality is None:
                    raise AssertionError(
                        f"job {job.job_id} finished without ground truth"
                    )
                truth[job.job_id] = Modality(job.true_modality)
        return truth

    def truth_by_identity(self) -> dict[str, Modality]:
        return self.population.truth_by_identity

    def active_truth_by_identity(self) -> dict[str, Modality]:
        """Ground truth restricted to identities that actually ran jobs.

        Short campaigns leave some (especially gateway/coupled) users
        inactive; measured counts should be compared against users who left
        any trace in accounting.
        """
        active: set[str] = set()
        for provider in self.providers:
            for job in provider.scheduler.completed:
                user = job.true_user or job.user
                gateway = job.attributes.get("gateway_name")
                if job.attributes.get("submit_interface") == "gateway":
                    active.add(f"{gateway}:{user}")
                else:
                    active.add(user)
        return {
            identity: modality
            for identity, modality in self.population.truth_by_identity.items()
            if identity in active
        }


def run_scenario(config: ScenarioConfig | None = None, **overrides) -> ScenarioResult:
    """Build and run one campaign; see :class:`ScenarioConfig` for knobs.

    Keyword overrides are applied on top of ``config`` (or the defaults), so
    ``run_scenario(days=90, seed=3)`` works without building a config.
    """
    if config is None:
        config = ScenarioConfig()
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)

    sim = Simulator()
    # Every population cell of a multi-cell campaign uses the same master
    # seed, so the shared world (population, gateways, outages) is identical
    # across cells and cell outputs are independent of the order cells run in.
    streams = RandomStreams(seed=config.seed)
    ledger = infra.AllocationLedger()
    central = CentralAccountingDB()
    network = infra.Network(sim)
    # One metric namespace per run: every component below registers its
    # counters here, so the oracle (and the telemetry sidecar) read the same
    # cells the components mutate.
    metrics = MetricsRegistry()

    # A disabled regime takes the plain lossless path below — not merely an
    # equivalent-looking one: the resilient feed schedules extra simulator
    # events, and byte-identity with historical runs demands zero of them.
    endpoint = None
    recovery = None
    if config.faulty_ingest:
        endpoint = AmieIngestEndpoint(central, metrics=metrics)
        recovery = (
            config.ingest_recovery
            if config.ingest_recovery is not None
            else IngestRecoveryPolicy()
        )

    specs = config.sites if config.sites is not None else federation_specs(config.scale)
    providers = []
    for spec in specs:
        feed_factory = None
        if endpoint is not None:
            def feed_factory(
                feed_sim, _name=spec.name, _endpoint=endpoint, _recovery=recovery
            ):
                return ResilientAmieFeed(
                    feed_sim,
                    _endpoint,
                    feed_id=_name,
                    regime=config.packet_faults,
                    policy=_recovery,
                    rng=streams.stream(f"amie:{_name}"),
                    interval=config.amie_interval,
                    metrics=metrics,
                )
        provider = infra.ResourceProvider(
            sim,
            spec.cluster(),
            ledger,
            central,
            scheduler_factory=config.scheduler_factory,
            amie_interval=config.amie_interval,
            feed_factory=feed_factory,
        )
        providers.append(provider)
        network.add_site(spec.name, spec.wan_bandwidth)

    info = infra.InformationService(
        sim, providers, publish_interval=config.info_publish_interval
    )
    meta = infra.Metascheduler(
        providers,
        config.metascheduler_strategy,
        rng=streams.stream("metascheduler"),
        info_service=info,
    )
    engine = infra.WorkflowEngine(sim, meta, network=network)
    coalloc = infra.CoAllocator(sim)

    population = build_population(
        config.population, streams.stream("population"), providers, ledger
    )
    gateways = {
        name: infra.ScienceGateway(
            name=name,
            community_user=community_user,
            community_account=account,
            rng=streams.stream(f"gateway:{name}"),
            tagging_coverage=config.gateway_tagging_coverage,
            sim=sim,
            max_backlog=config.gateway_backlog,
            metrics=metrics,
        )
        for name, (community_user, account) in population.community_accounts.items()
    }

    injectors = []
    if config.outages is not None:
        info.outage_propagation_lag = config.outage_propagation_lag
        injectors = [
            infra.SiteOutageInjector(
                sim,
                provider,
                streams.stream(f"outage:{provider.name}"),
                policy=config.outages,
                metascheduler=meta,
                metrics=metrics,
            )
            for provider in providers
        ]

    ctx = SimulationContext(
        sim=sim,
        streams=streams,
        providers=providers,
        metascheduler=meta,
        gateways=gateways,
        workflow_engine=engine,
        coallocator=coalloc,
        gateway_adoption_ramp=config.gateway_adoption_ramp_days * DAY,
        network=network,
        recovery=config.recovery,
    )
    member_indices = None
    if config.shard is not None:
        member_indices = cell_members(population, *config.shard)
    start_behaviors(
        ctx, population, profiles=config.profiles, member_indices=member_indices
    )

    sim.run(until=config.horizon)
    for provider in providers:
        provider.feed.drain()
    reconciliation = None
    if endpoint is not None:
        reconciliation = endpoint.reconcile(
            [provider.feed for provider in providers],
            resend=recovery.reconcile,
        )

    return ScenarioResult(
        config=config,
        central=central,
        population=population,
        providers=providers,
        gateways=gateways,
        sim=sim,
        ledger=ledger,
        network=network,
        metascheduler=meta,
        context=ctx,
        injectors=injectors,
        amie_endpoint=endpoint,
        reconciliation=reconciliation,
        metrics=metrics,
    )


@dataclass(frozen=True)
class CampaignKey:
    """Canonical identity of one shared campaign.

    Construct through :meth:`make`, which coerces every field to its
    canonical type — ``days=90`` (int) and ``days=90.0`` (float) historically
    produced *distinct* memo entries and therefore duplicate simulations;
    canonicalization collapses them.  The field set is exactly the knob set
    of :func:`repro.experiments.base.campaign`, and :meth:`config` expands a
    key back into the :class:`ScenarioConfig` that function builds, so a key
    alone is sufficient to (re)simulate its campaign bit-for-bit.
    """

    days: float
    seed: int
    scale: str
    population_scale: float
    gateway_tagging_coverage: float
    gateway_adoption_ramp_days: float

    @classmethod
    def make(
        cls,
        days: float = CAMPAIGN_DAYS,
        seed: int = CAMPAIGN_SEED,
        scale: str = CAMPAIGN_SCALE,
        population_scale: float = CAMPAIGN_POPULATION_SCALE,
        gateway_tagging_coverage: float = 1.0,
        gateway_adoption_ramp_days: float = 0.0,
    ) -> "CampaignKey":
        return cls(
            days=float(days),
            seed=int(seed),
            scale=str(scale),
            population_scale=float(population_scale),
            gateway_tagging_coverage=float(gateway_tagging_coverage),
            gateway_adoption_ramp_days=float(gateway_adoption_ramp_days),
        )

    def asdict(self) -> dict:
        return {
            "days": self.days,
            "seed": self.seed,
            "scale": self.scale,
            "population_scale": self.population_scale,
            "gateway_tagging_coverage": self.gateway_tagging_coverage,
            "gateway_adoption_ramp_days": self.gateway_adoption_ramp_days,
        }

    def config(self) -> ScenarioConfig:
        return ScenarioConfig(
            scale=self.scale,
            days=self.days,
            seed=self.seed,
            population=PopulationSpec(scale=self.population_scale),
            gateway_tagging_coverage=self.gateway_tagging_coverage,
            gateway_adoption_ramp_days=self.gateway_adoption_ramp_days,
        )


@dataclass(frozen=True)
class TransferSummary:
    """The analysis-facing slice of one completed :class:`~repro.infra.network.Transfer`."""

    src: str
    dst: str
    size_bytes: float
    tag: Optional[str]
    duration: Optional[float]


class _CentralView:
    """Accounting-DB stand-in backed by extracted data (read-only)."""

    def __init__(self, records: list[UsageRecord], total_nu: float) -> None:
        self._records = records
        self._total_nu = total_nu

    def all_records(self) -> list[UsageRecord]:
        return list(self._records)

    def total_nu(self) -> float:
        return self._total_nu

    def __len__(self) -> int:
        return len(self._records)


class _NetworkView:
    """Network stand-in exposing only the completed-transfer log."""

    def __init__(self, transfers: tuple[TransferSummary, ...]) -> None:
        self._transfers = transfers

    @property
    def completed_transfers(self) -> tuple[TransferSummary, ...]:
        return self._transfers


@dataclass
class CampaignArtifact:
    """A measurement-sufficient snapshot of one campaign's results.

    Duck-types the slice of :class:`ScenarioResult` the campaign-reading
    experiments consume — ``records``, the truth maps, ``community_accounts``,
    ``central.total_nu()`` and ``network.completed_transfers`` — while
    containing only plain picklable data (no simulator, no providers, no
    event queues).  :meth:`from_result` extracts one from a live result; the
    round-trip fidelity contract (every measurement taken from the artifact
    equals the one taken live) is enforced by the test suite, because the
    byte-identity of store-enabled sweeps rests on it.
    """

    key: Optional[CampaignKey]
    records: list[UsageRecord]
    job_truth: dict[int, Modality]
    identity_truth: dict[str, Modality]
    active_identities: frozenset[str]
    community_accounts: frozenset[str]
    total_nu: float
    transfers: tuple[TransferSummary, ...]
    #: deterministic registry snapshot (:meth:`MetricsRegistry.as_dict`) taken
    #: at extraction time; empty for hand-built results with no registry
    metric_snapshot: dict = field(default_factory=dict)

    @classmethod
    def from_result(
        cls, result: ScenarioResult, key: Optional[CampaignKey] = None
    ) -> "CampaignArtifact":
        registry = getattr(result, "metrics", None)
        return cls(
            key=key,
            records=result.records,
            job_truth=result.truth_by_job(),
            identity_truth=dict(result.truth_by_identity()),
            active_identities=frozenset(result.active_truth_by_identity()),
            community_accounts=frozenset(result.community_accounts),
            total_nu=result.central.total_nu(),
            transfers=tuple(
                TransferSummary(
                    src=t.src,
                    dst=t.dst,
                    size_bytes=t.size_bytes,
                    tag=t.tag,
                    duration=t.duration,
                )
                for t in result.network.completed_transfers
            ),
            metric_snapshot=registry.as_dict() if registry is not None else {},
        )

    # -- the ScenarioResult measurement surface ------------------------------
    @property
    def central(self) -> _CentralView:
        return _CentralView(self.records, self.total_nu)

    @property
    def network(self) -> _NetworkView:
        return _NetworkView(self.transfers)

    @property
    def config(self) -> Optional[ScenarioConfig]:
        return self.key.config() if self.key is not None else None

    def truth_by_job(self) -> dict[int, Modality]:
        return dict(self.job_truth)

    def truth_by_identity(self) -> dict[str, Modality]:
        return dict(self.identity_truth)

    def active_truth_by_identity(self) -> dict[str, Modality]:
        return {
            identity: modality
            for identity, modality in self.identity_truth.items()
            if identity in self.active_identities
        }

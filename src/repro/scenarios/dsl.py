"""The federation-scenario DSL: declarative programs that compile to configs.

The simulator's native knob surface is :class:`~repro.workloads.synthetic.
ScenarioConfig` — a flat bag of parameters every experiment hand-builds, which
in practice means the machinery is only ever exercised on a handful of
TeraGrid-2010-shaped federations.  A :class:`ScenarioProgram` is the
declarative alternative: a small, validated, composable description of

* a **federation** (preset scale or explicit site list),
* a **modality mix** (how the user community splits across the six paper
  modalities),
* a **gateway fleet** (portal count, tagging coverage, outage backlog,
  adoption ramp),
* an **outage regime** (unplanned whole-site / partial-rack failure process),
* a **recovery suite** (per-modality reaction policies),
* an **ingest-fault regime** (lossy AMIE packet exchange + recovery level), and
* a **load shape** (overall intensity plus time-varying ramp)

that :meth:`ScenarioProgram.compile` lowers deterministically to a
``ScenarioConfig``: the same program always produces an identical config, so
a program (plus its seed) is a complete, replayable description of a run.

Programs are plain frozen dataclasses — buildable from python (the scenario
library in :mod:`repro.scenarios.library`), from YAML/dicts
(:mod:`repro.scenarios.loader`), or drawn at random from hypothesis
strategies (:mod:`repro.scenarios.strategies`) for invariant fuzzing.

A compile-time guarantee worth naming: a program with an outage regime but
no explicit recovery suite compiles with :data:`~repro.users.behavior.
DEFAULT_RECOVERY` — the legacy ``recovery=None`` behaviour loop does not
survive a mid-submission outage (``SiteDownError`` propagates), so the DSL
never produces that combination.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.core.modalities import MODALITY_ORDER, Modality
from repro.infra.amie import IngestRecoveryPolicy, PacketFaultRegime
from repro.infra.metascheduler import SelectionStrategy
from repro.infra.resilience import OutagePolicy
from repro.infra.scheduler import (
    EasyBackfillScheduler,
    FairshareScheduler,
    FcfsScheduler,
    WeeklyDrainScheduler,
)
from repro.infra.units import DAY, HOUR, MINUTE
from repro.users.behavior import DEFAULT_RECOVERY, RecoveryPolicy
from repro.users.population import PopulationSpec
from repro.users.profiles import DEFAULT_PROFILES, BehaviorProfile
from repro.workloads.scenarios import SiteSpec, federation_specs
from repro.workloads.synthetic import ScenarioConfig

__all__ = [
    "FederationDef",
    "GatewayFleet",
    "IngestFaults",
    "LoadShape",
    "ModalityMix",
    "OutageRegime",
    "RecoverySuite",
    "SCHEDULERS",
    "ScenarioProgram",
]

#: Recovery levels an :class:`IngestFaults` section may name.
INGEST_RECOVERY_LEVELS = ("none", "retry", "audit")

#: Scheduler policies a program may name (the YAML-facing vocabulary).
SCHEDULERS = {
    "easy_backfill": EasyBackfillScheduler,
    "fairshare": FairshareScheduler,
    "fcfs": FcfsScheduler,
    "weekly_drain": WeeklyDrainScheduler,
}


@dataclass(frozen=True)
class FederationDef:
    """Which machines exist: a preset scale or an explicit site list."""

    preset: Optional[str] = "small"
    sites: Optional[tuple[SiteSpec, ...]] = None

    def __post_init__(self) -> None:
        if (self.preset is None) == (self.sites is None):
            raise ValueError("give exactly one of preset= or sites=")
        if self.sites is not None:
            if not self.sites:
                raise ValueError("sites must be non-empty")
            names = [s.name for s in self.sites]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate site names: {names}")
        if self.preset is not None:
            federation_specs(self.preset)  # raises on unknown scale

    def specs(self) -> tuple[SiteSpec, ...]:
        if self.sites is not None:
            return self.sites
        return federation_specs(self.preset or "small")


@dataclass(frozen=True)
class ModalityMix:
    """How ``total_users`` split across modalities, by weight.

    Weights are relative (they need not sum to 1); integer per-modality
    counts come out of a largest-remainder apportionment, which is
    deterministic and exactly preserves ``total_users``.  Modalities absent
    from ``weights`` get zero users.
    """

    total_users: int
    weights: dict[Modality, float]

    def __post_init__(self) -> None:
        if self.total_users < 1:
            raise ValueError(f"total_users must be >= 1, got {self.total_users}")
        if not self.weights:
            raise ValueError("weights must name at least one modality")
        for modality, weight in self.weights.items():
            if not isinstance(modality, Modality):
                raise ValueError(f"weights keys must be Modality, got {modality!r}")
            if weight < 0:
                raise ValueError(f"negative weight for {modality}: {weight}")
        if sum(self.weights.values()) <= 0:
            raise ValueError("at least one weight must be positive")

    def counts(self) -> dict[Modality, int]:
        """Integer users per modality (largest-remainder, ties by taxonomy order)."""
        total_weight = sum(self.weights.values())
        shares = {
            m: self.total_users * self.weights.get(m, 0.0) / total_weight
            for m in MODALITY_ORDER
        }
        counts = {m: int(shares[m]) for m in MODALITY_ORDER}
        leftover = self.total_users - sum(counts.values())
        by_remainder = sorted(
            MODALITY_ORDER,
            key=lambda m: (-(shares[m] - counts[m]), MODALITY_ORDER.index(m)),
        )
        for m in by_remainder[:leftover]:
            counts[m] += 1
        return counts


@dataclass(frozen=True)
class GatewayFleet:
    """The portal layer: how many gateways and how well instrumented."""

    n_gateways: int = 3
    tagging_coverage: float = 1.0
    #: requests held through a backend outage (0 = shed everything)
    backlog: int = 0
    #: end users activate uniformly over this many days (0 = all at once)
    adoption_ramp_days: float = 0.0

    def __post_init__(self) -> None:
        if self.n_gateways < 1:
            # build_population requires at least one gateway (community
            # accounts anchor the allocation model even with no gateway users)
            raise ValueError(f"n_gateways must be >= 1, got {self.n_gateways}")
        if not (0.0 <= self.tagging_coverage <= 1.0):
            raise ValueError(
                f"tagging_coverage must be in [0, 1], got {self.tagging_coverage}"
            )
        if self.backlog < 0:
            raise ValueError(f"backlog must be >= 0, got {self.backlog}")
        if self.adoption_ramp_days < 0:
            raise ValueError(
                f"adoption_ramp_days must be >= 0, got {self.adoption_ramp_days}"
            )


@dataclass(frozen=True)
class OutageRegime:
    """The unplanned-failure climate, in human units (days/hours/minutes)."""

    site_mtbf_days: float = 45.0
    partial_mtbf_days: float = 0.0
    partial_fraction: float = 0.125
    repair_median_hours: float = 6.0
    repair_sigma: float = 0.8
    repair_min_hours: float = 1.0
    repair_max_hours: float = 72.0
    propagation_lag_minutes: float = 10.0

    def __post_init__(self) -> None:
        if self.propagation_lag_minutes < 0:
            raise ValueError("propagation_lag_minutes must be >= 0")
        self.policy()  # delegate the remaining validation to OutagePolicy

    def policy(self) -> OutagePolicy:
        return OutagePolicy(
            site_mtbf=self.site_mtbf_days * DAY,
            partial_mtbf=self.partial_mtbf_days * DAY,
            partial_fraction=self.partial_fraction,
            repair_median=self.repair_median_hours * HOUR,
            repair_sigma=self.repair_sigma,
            repair_min=self.repair_min_hours * HOUR,
            repair_max=self.repair_max_hours * HOUR,
        )

    @property
    def propagation_lag(self) -> float:
        return self.propagation_lag_minutes * MINUTE


@dataclass(frozen=True)
class RecoverySuite:
    """Per-modality failure reactions, as overrides on the default suite."""

    #: modality -> policy; modalities not named fall back to DEFAULT_RECOVERY
    overrides: dict[Modality, RecoveryPolicy] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for modality, policy in self.overrides.items():
            if not isinstance(modality, Modality):
                raise ValueError(f"overrides keys must be Modality, got {modality!r}")
            if not isinstance(policy, RecoveryPolicy):
                raise ValueError(
                    f"override for {modality} must be a RecoveryPolicy, got {policy!r}"
                )

    def policies(self) -> dict[Modality, RecoveryPolicy]:
        merged = dict(DEFAULT_RECOVERY)
        merged.update(self.overrides)
        return merged


@dataclass(frozen=True)
class IngestFaults:
    """A lossy AMIE accounting exchange, in human units.

    Rates are per-packet probabilities; the mean transit delay is in
    minutes.  ``recovery`` names how hard the exchange fights back:
    ``"none"`` (fire-and-forget), ``"retry"`` (ack-timeout retransmission
    only), or ``"audit"`` (retransmission plus the end-of-run
    reconciliation audit with targeted re-sends — the level that drives
    unrecovered records to zero).
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_mean_minutes: float = 0.0
    recovery: str = "audit"
    ack_timeout_minutes: float = 30.0
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.recovery not in INGEST_RECOVERY_LEVELS:
            raise ValueError(
                f"unknown recovery level {self.recovery!r}; "
                f"choose from {list(INGEST_RECOVERY_LEVELS)}"
            )
        if self.delay_mean_minutes < 0:
            raise ValueError(
                f"delay_mean_minutes must be >= 0, got {self.delay_mean_minutes}"
            )
        self.regime()  # delegate rate validation to PacketFaultRegime
        self.policy()  # and timeout/attempt validation to IngestRecoveryPolicy

    def regime(self) -> PacketFaultRegime:
        return PacketFaultRegime(
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
            corrupt_rate=self.corrupt_rate,
            delay_mean=self.delay_mean_minutes * MINUTE,
        )

    def policy(self) -> IngestRecoveryPolicy:
        return IngestRecoveryPolicy(
            retransmit=self.recovery != "none",
            ack_timeout=self.ack_timeout_minutes * MINUTE,
            max_attempts=self.max_attempts,
            reconcile=self.recovery == "audit",
        )


@dataclass(frozen=True)
class LoadShape:
    """Overall demand level and its variation over the run.

    ``intensity`` scales every modality's session rate (think times divide
    by it): 1.0 is the calibrated TeraGrid level, 2.0 doubles demand.
    ``gateway_ramp_days`` staggers gateway end-user activation over time —
    the time-varying component (an adoption wave / growing campaign).
    """

    intensity: float = 1.0
    gateway_ramp_days: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.intensity <= 100.0):
            raise ValueError(f"intensity must be in (0, 100], got {self.intensity}")
        if self.gateway_ramp_days < 0:
            raise ValueError(
                f"gateway_ramp_days must be >= 0, got {self.gateway_ramp_days}"
            )

    def profiles(self) -> Optional[dict[Modality, BehaviorProfile]]:
        """The behaviour profiles at this intensity (None = untouched defaults)."""
        if self.intensity == 1.0:
            return None
        return {
            modality: dataclasses.replace(
                profile, think_time_mean=profile.think_time_mean / self.intensity
            )
            for modality, profile in DEFAULT_PROFILES.items()
        }


@dataclass(frozen=True)
class ScenarioProgram:
    """One declarative federation scenario; ``compile()`` lowers it to knobs."""

    name: str
    description: str = ""
    days: float = 30.0
    seed: int = 0
    federation: FederationDef = field(default_factory=FederationDef)
    mix: Optional[ModalityMix] = None
    gateways: GatewayFleet = field(default_factory=GatewayFleet)
    outages: Optional[OutageRegime] = None
    recovery: Optional[RecoverySuite] = None
    ingest: Optional[IngestFaults] = None
    load: LoadShape = field(default_factory=LoadShape)
    scheduler: str = "easy_backfill"
    metascheduler: SelectionStrategy = SelectionStrategy.PREDICTED_START
    #: population scale used only when no explicit mix is given
    population_scale: float = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("program needs a name")
        if self.days <= 0:
            raise ValueError(f"days must be positive, got {self.days}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {sorted(SCHEDULERS)}"
            )
        if not isinstance(self.metascheduler, SelectionStrategy):
            raise ValueError(
                f"metascheduler must be a SelectionStrategy, got {self.metascheduler!r}"
            )
        if self.population_scale <= 0:
            raise ValueError(
                f"population_scale must be positive, got {self.population_scale}"
            )

    def population(self) -> PopulationSpec:
        if self.mix is None:
            return PopulationSpec(
                scale=self.population_scale, n_gateways=self.gateways.n_gateways
            )
        return PopulationSpec(
            scale=self.population_scale,
            counts=self.mix.counts(),
            n_gateways=self.gateways.n_gateways,
        )

    def compile(
        self, seed: Optional[int] = None, days: Optional[float] = None
    ) -> ScenarioConfig:
        """Lower to a :class:`ScenarioConfig` — pure and deterministic.

        ``seed``/``days`` override the program's own values (the fuzzing
        harness and CLI replay rely on this).
        """
        recovery = self.recovery
        if recovery is None and self.outages is not None:
            recovery = RecoverySuite()
        return ScenarioConfig(
            scale=self.federation.preset or "small",
            days=float(days if days is not None else self.days),
            seed=int(seed if seed is not None else self.seed),
            population=self.population(),
            gateway_tagging_coverage=self.gateways.tagging_coverage,
            scheduler_factory=SCHEDULERS[self.scheduler],
            metascheduler_strategy=self.metascheduler,
            profiles=self.load.profiles(),
            sites=self.federation.sites,
            gateway_adoption_ramp_days=max(
                self.gateways.adoption_ramp_days, self.load.gateway_ramp_days
            ),
            outages=None if self.outages is None else self.outages.policy(),
            outage_propagation_lag=(
                self.outages.propagation_lag
                if self.outages is not None
                else 10 * MINUTE
            ),
            recovery=None if recovery is None else recovery.policies(),
            gateway_backlog=self.gateways.backlog,
            packet_faults=None if self.ingest is None else self.ingest.regime(),
            ingest_recovery=None if self.ingest is None else self.ingest.policy(),
        )

"""Building the user community and its allocations.

The population is the ground truth: every user gets exactly one (primary)
modality, drawn in the proportions of the paper-era TeraGrid community
(DESIGN.md §3), scaled by ``PopulationSpec.scale`` so tests run in seconds
and benchmarks in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.modalities import MODALITY_ORDER, Modality
from repro.infra.allocations import AllocationLedger, AllocationType
from repro.infra.site import ResourceProvider
from repro.users.fields import sample_field

__all__ = ["User", "PopulationSpec", "Population", "build_population"]

#: 2010-era user counts per modality (shape targets; see DESIGN.md §3).
BASE_USER_COUNTS: dict[Modality, int] = {
    Modality.BATCH: 850,
    Modality.EXPLORATORY: 650,
    Modality.GATEWAY: 500,
    Modality.ENSEMBLE: 250,
    Modality.VIZ: 35,
    Modality.COUPLED: 10,
}

DEFAULT_GATEWAY_NAMES: tuple[str, ...] = (
    "nanohub",
    "cipres",
    "ccsm_portal",
    "geongrid",
)

#: Each gateway serves one domain; its community award carries that field.
GATEWAY_FIELDS: dict[str, str] = {
    "nanohub": "Materials Research",
    "cipres": "Molecular Biosciences",
    "ccsm_portal": "Atmospheric Sciences",
    "geongrid": "Earth Sciences",
}


@dataclass(frozen=True)
class User:
    """One community member (ground truth)."""

    user_id: str
    modality: Modality
    field: str
    account: str
    home_site: str
    gateway: Optional[str] = None

    @property
    def identity(self) -> str:
        """The identity key instrumented measurement should recover."""
        if self.gateway is not None:
            return f"{self.gateway}:{self.user_id}"
        return self.user_id


@dataclass(frozen=True)
class PopulationSpec:
    """How large a community to build.

    ``scale`` multiplies the base per-modality counts; explicit ``counts``
    override them entirely.  Small modalities are floored at 1 user so every
    modality is represented at any scale.
    """

    scale: float = 0.1
    counts: Optional[dict[Modality, int]] = None
    n_gateways: int = 3
    startup_budget_nu: float = 3.0e4
    research_budget_nu: float = 1.0e6
    community_budget_nu: float = 5.0e6

    def user_counts(self) -> dict[Modality, int]:
        if self.counts is not None:
            return {m: int(self.counts.get(m, 0)) for m in MODALITY_ORDER}
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        return {
            m: max(int(round(BASE_USER_COUNTS[m] * self.scale)), 1)
            for m in MODALITY_ORDER
        }


@dataclass
class Population:
    """The built community plus its ground-truth maps."""

    users: list[User] = field(default_factory=list)
    gateway_names: list[str] = field(default_factory=list)
    #: gateway name -> (community user, community account)
    community_accounts: dict[str, tuple[str, str]] = field(default_factory=dict)

    @property
    def truth_by_identity(self) -> dict[str, Modality]:
        return {user.identity: user.modality for user in self.users}

    def __len__(self) -> int:
        return len(self.users)


def build_population(
    spec: PopulationSpec,
    rng: np.random.Generator,
    providers: Sequence[ResourceProvider],
    ledger: AllocationLedger,
) -> Population:
    """Create users, allocations and community accounts.

    * Non-gateway users get their own allocation: a RESEARCH award for
      batch/ensemble/viz/coupled users, a STARTUP award for exploratory
      users (porting is what startup allocations were for).
    * Gateway end users hold no allocation at all; each gateway gets one
      COMMUNITY allocation shared by its whole user base.
    * Home sites are drawn proportionally to machine size (bigger machines
      attract more users).
    """
    if not providers:
        raise ValueError("population needs at least one provider")
    if spec.n_gateways < 1:
        raise ValueError("need at least one gateway")
    population = Population()

    site_names = [p.name for p in providers]
    site_weights = np.array(
        [p.cluster.total_cores for p in providers], dtype=float
    )
    site_weights /= site_weights.sum()

    def pick_site() -> str:
        return site_names[int(rng.choice(len(site_names), p=site_weights))]

    # Gateways and their community accounts.
    names = list(DEFAULT_GATEWAY_NAMES)
    while len(names) < spec.n_gateways:
        names.append(f"gateway{len(names)}")
    gateway_names = names[: spec.n_gateways]
    population.gateway_names = gateway_names
    for gateway in gateway_names:
        community_user = f"gw_{gateway}"
        account = f"TG-COMM-{gateway.upper()}"
        ledger.create(
            account,
            AllocationType.COMMUNITY,
            spec.community_budget_nu,
            users={community_user},
            field_of_science=GATEWAY_FIELDS.get(gateway, "Computer Science"),
        )
        population.community_accounts[gateway] = (community_user, account)

    # Gateway popularity is heavy-tailed (nanoHUB alone served most users).
    gateway_weights = np.array(
        [1.0 / (rank + 1) for rank in range(len(gateway_names))]
    )
    gateway_weights /= gateway_weights.sum()

    counts = spec.user_counts()
    serial = 0
    for modality in MODALITY_ORDER:
        for _ in range(counts[modality]):
            serial += 1
            user_id = f"u{serial:05d}"
            field_of_science = sample_field(rng)
            home_site = pick_site()
            if modality is Modality.GATEWAY:
                gateway = gateway_names[
                    int(rng.choice(len(gateway_names), p=gateway_weights))
                ]
                population.users.append(
                    User(
                        user_id=user_id,
                        modality=modality,
                        field=field_of_science,
                        account=population.community_accounts[gateway][1],
                        home_site=home_site,
                        gateway=gateway,
                    )
                )
                continue
            kind = (
                AllocationType.STARTUP
                if modality is Modality.EXPLORATORY
                else AllocationType.RESEARCH
            )
            budget = (
                spec.startup_budget_nu
                if kind is AllocationType.STARTUP
                else spec.research_budget_nu
            )
            account = f"TG-{user_id.upper()}"
            ledger.create(
                account,
                kind,
                budget,
                users={user_id},
                field_of_science=field_of_science,
            )
            population.users.append(
                User(
                    user_id=user_id,
                    modality=modality,
                    field=field_of_science,
                    account=account,
                    home_site=home_site,
                )
            )
    return population

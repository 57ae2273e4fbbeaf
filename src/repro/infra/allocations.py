"""Allocation accounts and service-unit charging.

TeraGrid usage is charged against *allocations*: peer-reviewed research
grants, small startup grants, or *community* allocations held by science
gateways on behalf of their whole user base.  The community-allocation
mechanism is what makes gateway usage measurement hard — thousands of end
users share one account — and is why the paper proposes per-job gateway-user
attributes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Allocation", "AllocationLedger", "AllocationType"]


class AllocationType(enum.Enum):
    STARTUP = "startup"  # small exploratory grants
    RESEARCH = "research"  # peer-reviewed (TRAC) awards
    COMMUNITY = "community"  # gateway-held, shared by many end users


@dataclass
class Allocation:
    """A single account: an NU budget shared by one or more users.

    ``field_of_science`` is the award's discipline (allocations, not users,
    carry the field in TeraGrid accounting — usage reports join through it).
    """

    account_id: str
    kind: AllocationType
    budget_nu: float
    users: set[str] = field(default_factory=set)
    charged_nu: float = 0.0
    field_of_science: Optional[str] = None

    def __post_init__(self) -> None:
        if self.budget_nu < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget_nu}")

    def charge(self, nu: float) -> float:
        """Charge ``nu`` normalized units; returns the amount charged.

        The full amount is always charged: TeraGrid charged jobs that ran
        even if they overran the award, and the account simply goes
        negative.
        """
        if nu < 0:
            raise ValueError(f"charge must be >= 0, got {nu}")
        self.charged_nu += nu
        return nu


class AllocationLedger:
    """Registry of all allocations, indexed by account."""

    def __init__(self) -> None:
        self._accounts: dict[str, Allocation] = {}

    def create(
        self,
        account_id: str,
        kind: AllocationType,
        budget_nu: float,
        users: set[str] | None = None,
        field_of_science: Optional[str] = None,
    ) -> Allocation:
        if account_id in self._accounts:
            raise ValueError(f"duplicate account id {account_id!r}")
        allocation = Allocation(
            account_id=account_id,
            kind=kind,
            budget_nu=budget_nu,
            users=set(users or ()),
            field_of_science=field_of_science,
        )
        self._accounts[account_id] = allocation
        return allocation

    def get(self, account_id: str) -> Allocation:
        try:
            return self._accounts[account_id]
        except KeyError:
            raise KeyError(f"unknown account {account_id!r}") from None

    def charge(self, account_id: str, nu: float) -> float:
        return self.get(account_id).charge(nu)

    def total_charged(self) -> float:
        return sum(a.charged_nu for a in self._accounts.values())

    def __contains__(self, account_id: str) -> bool:
        return account_id in self._accounts

"""Tests for allocation accounts and charging."""

import pytest

from repro.infra.allocations import Allocation, AllocationLedger, AllocationType


def test_create_and_lookup():
    ledger = AllocationLedger()
    ledger.create("TG-A", AllocationType.RESEARCH, 1000.0, users={"alice", "bob"})
    allocation = ledger.get("TG-A")
    assert allocation.kind is AllocationType.RESEARCH
    assert allocation.budget_nu == 1000.0
    assert allocation.users == {"alice", "bob"}
    assert "TG-A" in ledger


def test_duplicate_account_rejected():
    ledger = AllocationLedger()
    ledger.create("TG-A", AllocationType.STARTUP, 10.0)
    with pytest.raises(ValueError):
        ledger.create("TG-A", AllocationType.STARTUP, 10.0)


def test_unknown_account_raises():
    with pytest.raises(KeyError):
        AllocationLedger().get("nope")


def test_charge_with_overdraft():
    allocation = Allocation("A", AllocationType.RESEARCH, budget_nu=100.0)
    assert allocation.charge(80.0) == 80.0
    assert allocation.charge(50.0) == 50.0  # overdrawn: charged in full
    assert allocation.charged_nu == 130.0


def test_negative_charge_rejected():
    allocation = Allocation("A", AllocationType.RESEARCH, budget_nu=10.0)
    with pytest.raises(ValueError):
        allocation.charge(-1.0)


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        Allocation("A", AllocationType.RESEARCH, budget_nu=-5.0)


def test_total_charged_sums_accounts():
    ledger = AllocationLedger()
    ledger.create("A", AllocationType.RESEARCH, 100.0)
    ledger.create("B", AllocationType.RESEARCH, 100.0)
    ledger.charge("A", 30.0)
    ledger.charge("B", 12.5)
    assert ledger.total_charged() == pytest.approx(42.5)

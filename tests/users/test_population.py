"""Tests for fields, profiles and population construction."""

from collections import Counter

import numpy as np
import pytest

import repro.infra as I
from repro.core.modalities import MODALITY_ORDER, Modality
from repro.infra.allocations import AllocationType
from repro.sim import Simulator
from repro.users.fields import FIELDS_OF_SCIENCE, FIELD_WEIGHTS, sample_field
from repro.users.population import (
    BASE_USER_COUNTS,
    Population,
    PopulationSpec,
    build_population,
)
from repro.users.profiles import DEFAULT_PROFILES, BehaviorProfile
from repro.infra.units import HOUR


def test_field_weights_normalized():
    assert sum(FIELD_WEIGHTS) == pytest.approx(1.0)
    assert len(FIELD_WEIGHTS) == len(FIELDS_OF_SCIENCE)


def test_sample_field_returns_known_fields():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert sample_field(rng) in FIELDS_OF_SCIENCE


def test_default_profiles_cover_all_modalities():
    assert set(DEFAULT_PROFILES) == set(Modality)


def test_profiles_encode_modality_contrasts():
    batch = DEFAULT_PROFILES[Modality.BATCH]
    exploratory = DEFAULT_PROFILES[Modality.EXPLORATORY]
    coupled = DEFAULT_PROFILES[Modality.COUPLED]
    assert exploratory.runtime_median < batch.runtime_median / 10
    assert exploratory.failure_prob > 3 * batch.failure_prob
    assert coupled.min_cores > batch.min_cores
    assert coupled.think_time_mean > batch.think_time_mean


def test_profile_validation():
    base = DEFAULT_PROFILES[Modality.BATCH]
    with pytest.raises(ValueError):
        BehaviorProfile(
            modality=Modality.BATCH,
            think_time_mean=0.0,
            jobs_per_session=(1, 2),
            min_cores=1,
            max_cores=8,
            mean_log2_cores=2,
            sigma_log2_cores=1,
            runtime_median=HOUR,
            runtime_sigma=1.0,
            runtime_min=60.0,
            runtime_max=2 * HOUR,
            walltime_pad=2.0,
            failure_prob=0.1,
        )
    with pytest.raises(ValueError):
        BehaviorProfile(
            modality=Modality.BATCH,
            think_time_mean=base.think_time_mean,
            jobs_per_session=(3, 2),
            min_cores=1,
            max_cores=8,
            mean_log2_cores=2,
            sigma_log2_cores=1,
            runtime_median=HOUR,
            runtime_sigma=1.0,
            runtime_min=60.0,
            runtime_max=2 * HOUR,
            walltime_pad=2.0,
            failure_prob=0.1,
        )


def test_spec_user_counts_scale_and_floor():
    spec = PopulationSpec(scale=0.01)
    counts = spec.user_counts()
    for modality in MODALITY_ORDER:
        assert counts[modality] >= 1
    assert counts[Modality.BATCH] == round(BASE_USER_COUNTS[Modality.BATCH] * 0.01)


def test_spec_explicit_counts_override():
    spec = PopulationSpec(counts={Modality.BATCH: 3})
    counts = spec.user_counts()
    assert counts[Modality.BATCH] == 3
    assert counts[Modality.GATEWAY] == 0


def test_spec_scale_validation():
    with pytest.raises(ValueError):
        PopulationSpec(scale=0.0).user_counts()


def make_providers():
    sim = Simulator()
    ledger = I.AllocationLedger()
    central = I.CentralAccountingDB()
    providers = [
        I.ResourceProvider(
            sim, I.Cluster(name, nodes=nodes, cores_per_node=8), ledger, central
        )
        for name, nodes in [("big", 64), ("small", 8)]
    ]
    return providers, ledger


def test_build_population_accounts_and_ground_truth():
    providers, ledger = make_providers()
    spec = PopulationSpec(scale=0.02, n_gateways=2)
    population = build_population(
        spec, np.random.default_rng(3), providers, ledger
    )
    counts = Counter(user.modality for user in population.users)
    assert counts == spec.user_counts()
    # Non-gateway users have personal accounts; gateway users do not.
    for user in population.users:
        if user.modality is Modality.GATEWAY:
            assert user.gateway in population.gateway_names
            assert user.account.startswith("TG-COMM-")
            assert ":" in user.identity
        else:
            assert user.gateway is None
            allocation = ledger.get(user.account)
            assert user.user_id in allocation.users
            expected_kind = (
                AllocationType.STARTUP
                if user.modality is Modality.EXPLORATORY
                else AllocationType.RESEARCH
            )
            assert allocation.kind is expected_kind
    # Community accounts exist with the gateway community user on them.
    for gateway, (community_user, account) in population.community_accounts.items():
        allocation = ledger.get(account)
        assert allocation.kind is AllocationType.COMMUNITY
        assert community_user in allocation.users


def test_build_population_home_sites_weighted_by_size():
    providers, ledger = make_providers()
    spec = PopulationSpec(scale=0.5, n_gateways=1)
    population = build_population(
        spec, np.random.default_rng(5), providers, ledger
    )
    big = sum(1 for u in population.users if u.home_site == "big")
    small = sum(1 for u in population.users if u.home_site == "small")
    assert big > 3 * small  # 8x the cores -> strongly preferred


def test_truth_by_identity_unique():
    providers, ledger = make_providers()
    population = build_population(
        PopulationSpec(scale=0.05), np.random.default_rng(1), providers, ledger
    )
    truth = population.truth_by_identity
    assert len(truth) == len(population)


def test_build_population_validation():
    providers, ledger = make_providers()
    with pytest.raises(ValueError):
        build_population(PopulationSpec(), np.random.default_rng(0), [], ledger)
    with pytest.raises(ValueError):
        build_population(
            PopulationSpec(n_gateways=0), np.random.default_rng(0), providers, ledger
        )

"""Tests for federation presets and the scenario runner."""

import pytest

from repro.core.modalities import Modality
from repro.infra.scheduler import FcfsScheduler
from repro.users.population import PopulationSpec
from repro.workloads import (
    ScenarioConfig,
    TERAGRID_2010,
    federation_specs,
    run_scenario,
)


def test_presets_have_expected_sizes():
    assert len(federation_specs("small")) == 3
    assert len(federation_specs("medium")) == 5
    assert len(federation_specs("full")) == len(TERAGRID_2010) == 8
    with pytest.raises(ValueError):
        federation_specs("galactic")


def test_teragrid_2010_shape():
    by_name = {s.name: s for s in TERAGRID_2010}
    assert by_name["kraken"].nodes * by_name["kraken"].cores_per_node > (
        by_name["abe"].nodes * by_name["abe"].cores_per_node
    )
    for spec in TERAGRID_2010:
        cluster = spec.cluster()
        assert cluster.total_cores > 0
        assert spec.wan_bandwidth > 0


def test_run_scenario_defaults_and_overrides():
    result = run_scenario(
        days=5, seed=2, population=PopulationSpec(scale=0.02)
    )
    assert result.config.days == 5
    assert result.config.seed == 2
    assert len(result.records) > 0
    assert len(result.providers) == 3  # small federation


def test_run_scenario_is_reproducible():
    config = ScenarioConfig(days=5, seed=9, population=PopulationSpec(scale=0.02))
    a = run_scenario(config)
    b = run_scenario(config)
    assert a.records == b.records  # job ids included: they are per simulation


def test_run_scenario_different_seeds_differ():
    a = run_scenario(days=5, seed=1, population=PopulationSpec(scale=0.02))
    b = run_scenario(days=5, seed=2, population=PopulationSpec(scale=0.02))
    sig_a = [(r.user, r.cores, r.submit_time) for r in a.records]
    sig_b = [(r.user, r.cores, r.submit_time) for r in b.records]
    assert sig_a != sig_b


def test_truth_by_job_covers_every_record():
    result = run_scenario(days=5, seed=3, population=PopulationSpec(scale=0.02))
    truth = result.truth_by_job()
    for record in result.records:
        assert record.job_id in truth


def test_active_truth_subset_of_population_truth():
    result = run_scenario(days=5, seed=3, population=PopulationSpec(scale=0.02))
    active = result.active_truth_by_identity()
    full = result.truth_by_identity()
    assert set(active) <= set(full)
    for identity, modality in active.items():
        assert full[identity] is modality


def test_scheduler_factory_override():
    result = run_scenario(
        days=3,
        seed=1,
        population=PopulationSpec(scale=0.02),
        scheduler_factory=FcfsScheduler,
    )
    for provider in result.providers:
        assert isinstance(provider.scheduler, FcfsScheduler)


def test_gateway_coverage_zero_leaves_no_tags():
    result = run_scenario(
        days=10,
        seed=4,
        population=PopulationSpec(scale=0.02),
        gateway_tagging_coverage=0.0,
    )
    gateway_records = [
        r
        for r in result.records
        if r.attributes.get("submit_interface") == "gateway"
    ]
    assert gateway_records
    for record in gateway_records:
        assert "gateway_user" not in record.attributes

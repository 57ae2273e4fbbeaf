"""Behaviour-process tests: each modality leaves its expected fingerprint."""

import numpy as np
import pytest

from repro.core.modalities import Modality
from repro.infra.job import AttributeKeys, JobState
from repro.infra.units import DAY, HOUR, MINUTE
from repro.users.behavior import sample_job
from repro.users.population import PopulationSpec, User
from repro.users.profiles import DEFAULT_PROFILES
from repro.workloads import ScenarioConfig, run_scenario


def _user(modality=Modality.BATCH):
    return User(
        user_id="u1",
        modality=modality,
        field="Physics",
        account="TG-U1",
        home_site="ranger",
    )


def test_sample_job_respects_profile_bounds():
    rng = np.random.default_rng(0)
    profile = DEFAULT_PROFILES[Modality.BATCH]
    for _ in range(100):
        job = sample_job(rng, profile, _user(), job_id=1)
        assert profile.min_cores <= job.cores <= profile.max_cores
        assert job.walltime >= 60.0
        assert job.true_runtime > 0
        assert job.true_modality == "batch"


def test_sample_job_core_cap():
    rng = np.random.default_rng(0)
    profile = DEFAULT_PROFILES[Modality.BATCH]
    for _ in range(50):
        job = sample_job(rng, profile, _user(), job_id=1, max_cores_cap=16)
        assert job.cores <= 16


def test_sample_job_failures_end_early():
    rng = np.random.default_rng(0)
    profile = DEFAULT_PROFILES[Modality.EXPLORATORY]
    failing = [
        sample_job(rng, profile, _user(Modality.EXPLORATORY), job_id=i)
        for i in range(1, 301)
    ]
    failed = [j for j in failing if j.will_fail]
    fine = [j for j in failing if not j.will_fail]
    assert failed and fine
    assert np.median([j.true_runtime for j in failed]) < np.median(
        [j.true_runtime for j in fine]
    )


@pytest.fixture(scope="module")
def scenario():
    """One shared 20-day small-federation run for fingerprint checks."""
    return run_scenario(
        ScenarioConfig(
            scale="small",
            days=20,
            seed=7,
            population=PopulationSpec(scale=0.05, n_gateways=2),
        )
    )


def records_of_modality(scenario, modality):
    truth = scenario.truth_by_job()
    return [
        r for r in scenario.records if truth[r.job_id] is modality
    ]


def test_every_modality_produced_jobs(scenario):
    truth = scenario.truth_by_job()
    seen = {m for m in truth.values()}
    assert seen == set(Modality)


def test_batch_jobs_are_long_and_reliable(scenario):
    records = records_of_modality(scenario, Modality.BATCH)
    elapsed = np.median([r.elapsed for r in records if r.ran])
    failures = sum(
        1 for r in records if r.final_state is not JobState.COMPLETED
    ) / len(records)
    assert elapsed > HOUR
    assert failures < 0.25


def test_exploratory_jobs_are_short_and_flaky(scenario):
    records = records_of_modality(scenario, Modality.EXPLORATORY)
    batch = records_of_modality(scenario, Modality.BATCH)
    assert np.median([r.elapsed for r in records if r.ran]) < 30 * MINUTE
    expl_failures = sum(
        1 for r in records if r.final_state in (JobState.FAILED, JobState.KILLED_WALLTIME)
    ) / len(records)
    batch_failures = sum(
        1 for r in batch if r.final_state in (JobState.FAILED, JobState.KILLED_WALLTIME)
    ) / len(batch)
    assert expl_failures > 2 * batch_failures


def test_gateway_jobs_carry_attributes_and_community_identity(scenario):
    records = records_of_modality(scenario, Modality.GATEWAY)
    assert records
    for record in records:
        assert record.attributes[AttributeKeys.SUBMIT_INTERFACE] == "gateway"
        assert record.user.startswith("gw_")
        assert AttributeKeys.GATEWAY_USER in record.attributes  # coverage=1.0


def test_ensemble_jobs_grouped(scenario):
    records = records_of_modality(scenario, Modality.ENSEMBLE)
    assert records
    grouped = [
        r
        for r in records
        if AttributeKeys.ENSEMBLE_ID in r.attributes
        or AttributeKeys.WORKFLOW_ID in r.attributes
    ]
    assert len(grouped) == len(records)
    # both submission paths occur
    assert any(AttributeKeys.ENSEMBLE_ID in r.attributes for r in records)
    assert any(AttributeKeys.WORKFLOW_ID in r.attributes for r in records)


def test_viz_jobs_use_interactive_queue(scenario):
    records = records_of_modality(scenario, Modality.VIZ)
    assert records
    for record in records:
        assert record.queue_name == "interactive"


def test_coupled_jobs_synchronized_across_sites(scenario):
    records = records_of_modality(scenario, Modality.COUPLED)
    assert records
    by_coalloc = {}
    for record in records:
        key = record.attributes[AttributeKeys.COALLOCATION_ID]
        by_coalloc.setdefault(key, []).append(record)
    for group in by_coalloc.values():
        ran = [r for r in group if r.ran]
        if len(ran) >= 2:
            starts = [r.start_time for r in ran]
            assert max(starts) - min(starts) < 1.0
            assert len({r.resource for r in ran}) >= 2


def test_gram_and_login_both_used(scenario):
    interfaces = {
        r.attributes.get(AttributeKeys.SUBMIT_INTERFACE)
        for r in scenario.records
    }
    assert "login" in interfaces
    assert "gram" in interfaces


def test_charges_were_applied(scenario):
    assert scenario.ledger.total_charged() > 0
    assert scenario.central.total_nu() == pytest.approx(
        scenario.ledger.total_charged()
    )

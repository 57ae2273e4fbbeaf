"""End-to-end integration: the paper's shape results on a full pipeline run.

These are the reproduction's acceptance tests — the dominance relations from
DESIGN.md §3/§4 must hold on a medium campaign: BATCH leads user counts and
NUs; GATEWAY has the most jobs per user and the smallest jobs; instrumented
measurement recovers user counts; uninstrumented measurement collapses
gateway users.
"""

from statistics import median

import numpy as np
import pytest

from repro.core import (
    AttributeClassifier,
    HeuristicClassifier,
    compute_metrics,
    score_classification,
)
from repro.core.evaluation import user_count_errors
from repro.core.modalities import Modality
from repro.users.population import PopulationSpec
from repro.workloads import ScenarioConfig, run_scenario


@pytest.fixture(scope="module")
def campaign():
    result = run_scenario(
        ScenarioConfig(
            scale="small",
            days=30,
            seed=1,
            population=PopulationSpec(scale=0.05),
        )
    )
    classification = AttributeClassifier().classify(result.records)
    metrics = compute_metrics(result.records, classification)
    return result, classification, metrics


def test_user_count_ordering_matches_paper(campaign):
    result, _, metrics = campaign
    users = metrics.users
    assert users[Modality.BATCH] >= users[Modality.EXPLORATORY]
    assert users[Modality.EXPLORATORY] >= users[Modality.GATEWAY]
    assert users[Modality.GATEWAY] >= users[Modality.ENSEMBLE]
    assert users[Modality.ENSEMBLE] > users[Modality.VIZ]
    assert users[Modality.VIZ] >= users[Modality.COUPLED]


def test_batch_dominates_nu_but_not_job_count(campaign):
    _, _, metrics = campaign
    assert metrics.nu_share(Modality.BATCH) > 0.5
    assert metrics.jobs[Modality.EXPLORATORY] > metrics.jobs[Modality.BATCH]


def test_gateway_highest_jobs_per_user_smallest_jobs(campaign):
    _, _, metrics = campaign
    gw_jpu = metrics.jobs_per_user(Modality.GATEWAY)
    batch_jpu = metrics.jobs_per_user(Modality.BATCH)
    assert gw_jpu > 0
    sizes = metrics.job_sizes
    assert median(sizes[Modality.GATEWAY]) < median(sizes[Modality.BATCH])
    assert median(sizes[Modality.COUPLED]) >= median(sizes[Modality.BATCH])


def test_instrumented_measurement_recovers_user_counts(campaign):
    result, classification, metrics = campaign
    truth = result.active_truth_by_identity()
    true_counts = {m: 0 for m in Modality}
    for modality in truth.values():
        true_counts[modality] += 1
    errors = user_count_errors(metrics.users, true_counts)
    for modality in Modality:
        assert abs(errors[modality]) <= 0.25, (modality, errors)


def test_instrumented_job_accuracy_high(campaign):
    result, classification, _ = campaign
    summary = score_classification(classification, result.truth_by_job())
    assert summary.accuracy > 0.95
    for modality in (Modality.GATEWAY, Modality.ENSEMBLE, Modality.COUPLED):
        assert summary.recall(modality) > 0.95


def test_uninstrumented_collapses_gateway_users(campaign):
    result, _, metrics = campaign
    heuristic = HeuristicClassifier(
        known_community_accounts=result.community_accounts
    )
    classification = heuristic.classify(result.records)
    measured = classification.users_by_modality()
    n_gateways = len(result.population.gateway_names)
    assert measured[Modality.GATEWAY] <= n_gateways
    assert metrics.users[Modality.GATEWAY] > 3 * measured[Modality.GATEWAY]


def test_identity_sets_match_truth_instrumented(campaign):
    result, classification, _ = campaign
    truth = result.active_truth_by_identity()
    measured_identities = set(classification.identity_primary)
    assert measured_identities == set(truth)
    agreement = sum(
        1
        for identity, modality in truth.items()
        if classification.identity_primary[identity] is modality
    ) / len(truth)
    assert agreement > 0.9


def test_all_sites_saw_usage(campaign):
    result, _, metrics = campaign
    assert set(metrics.by_site_nu) == {p.name for p in result.providers}

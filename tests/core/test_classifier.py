"""Tests for the attribute and heuristic modality classifiers."""

import pytest

from repro.core.classifier import (
    AttributeClassifier,
    ClassifierConfig,
    HeuristicClassifier,
    _residual_statistics,
)
from repro.core.modalities import Modality
from repro.infra.job import AttributeKeys, JobState
from repro.infra.units import HOUR, MINUTE


def test_attribute_labels_take_precedence(make_record):
    classifier = AttributeClassifier()
    assert classifier.label_job(
        make_record(attributes={AttributeKeys.COALLOCATION_ID: "c1"})
    ) is Modality.COUPLED
    assert classifier.label_job(
        make_record(attributes={AttributeKeys.INTERACTIVE: True})
    ) is Modality.VIZ
    assert classifier.label_job(
        make_record(queue_name="interactive")
    ) is Modality.VIZ
    assert classifier.label_job(
        make_record(attributes={AttributeKeys.SUBMIT_INTERFACE: "gateway"})
    ) is Modality.GATEWAY
    assert classifier.label_job(
        make_record(attributes={AttributeKeys.ENSEMBLE_ID: "e1"})
    ) is Modality.ENSEMBLE
    assert classifier.label_job(
        make_record(attributes={AttributeKeys.WORKFLOW_ID: "w1"})
    ) is Modality.ENSEMBLE
    assert classifier.label_job(make_record()) is None


def test_coupled_beats_other_attributes(make_record):
    record = make_record(
        attributes={
            AttributeKeys.COALLOCATION_ID: "c1",
            AttributeKeys.WORKFLOW_ID: "w1",
        }
    )
    assert AttributeClassifier().label_job(record) is Modality.COUPLED


def batch_like(make_record, n=6, user="prod", start_id=1000):
    """Long, reliable, mid-size jobs."""
    return [
        make_record(
            user=user,
            cores=64,
            elapsed=4 * HOUR,
            submit=i * 12 * HOUR,
            job_id=start_id + i,
        )
        for i in range(n)
    ]


def exploratory_like(make_record, n=8, user="porter", start_id=2000):
    """Short, tiny, failure-prone jobs."""
    return [
        make_record(
            user=user,
            cores=2,
            elapsed=5 * MINUTE,
            submit=i * 2 * HOUR,
            state=JobState.FAILED if i % 3 == 0 else JobState.COMPLETED,
            job_id=start_id + i,
        )
        for i in range(n)
    ]


def test_residual_split_batch_vs_exploratory(make_record):
    records = batch_like(make_record) + exploratory_like(make_record)
    classification = AttributeClassifier().classify(records)
    assert classification.identity_primary["prod"] is Modality.BATCH
    assert classification.identity_primary["porter"] is Modality.EXPLORATORY


def test_residual_statistics_skip_jobs_that_never_started(make_record):
    records = [
        make_record(elapsed=100.0, cores=4),
        make_record(elapsed=200.0, cores=8),
        make_record(elapsed=300.0, cores=16, state=JobState.FAILED),
        make_record(elapsed=0.0, wait=None, cores=32, state=JobState.CANCELLED),
    ]
    # Elapsed over the three started jobs; failures and cores over all four.
    assert _residual_statistics(records) == (200.0, 0.25, 12.0)
    killed = make_record(elapsed=50.0, cores=2, state=JobState.KILLED_WALLTIME)
    assert _residual_statistics(records + [killed]) == (150.0, 0.4, 8.0)
    assert _residual_statistics(records[3:]) == (0.0, 0.0, 32.0)


def test_users_by_modality_counts_primaries(make_record):
    records = batch_like(make_record) + exploratory_like(make_record)
    classification = AttributeClassifier().classify(records)
    counts = classification.users_by_modality()
    assert counts[Modality.BATCH] == 1
    assert counts[Modality.EXPLORATORY] == 1
    assert classification.n_identities == 2


def test_multi_modality_user_primary_by_job_count(make_record):
    records = batch_like(make_record, n=2, user="mixed", start_id=3000)
    records += [
        make_record(
            user="mixed",
            attributes={AttributeKeys.ENSEMBLE_ID: "e"},
            submit=1e6 + i * 60,
            cores=8,
            job_id=3100 + i,
        )
        for i in range(10)
    ]
    classification = AttributeClassifier().classify(records)
    assert classification.identity_primary["mixed"] is Modality.ENSEMBLE
    assert classification.identity_modalities["mixed"] == {
        Modality.BATCH,
        Modality.ENSEMBLE,
    }


def test_instrumented_gateway_users_resolved(make_record):
    records = [
        make_record(
            user="gw_portal",
            account="TG-COMM",
            attributes={
                AttributeKeys.SUBMIT_INTERFACE: "gateway",
                AttributeKeys.GATEWAY_NAME: "portal",
                AttributeKeys.GATEWAY_USER: f"end{i}",
            },
            submit=i * HOUR,
            cores=1,
            elapsed=10 * MINUTE,
            job_id=4000 + i,
        )
        for i in range(12)
    ]
    classification = AttributeClassifier().classify(records)
    counts = classification.users_by_modality()
    assert counts[Modality.GATEWAY] == 12


def test_heuristic_gateway_collapse(make_record):
    records = [
        make_record(
            user="gw_portal",
            account="TG-COMM",
            attributes={
                AttributeKeys.SUBMIT_INTERFACE: "gateway",
                AttributeKeys.GATEWAY_NAME: "portal",
                AttributeKeys.GATEWAY_USER: f"end{i}",
            },
            submit=i * HOUR,
            cores=1,
            elapsed=10 * MINUTE,
            job_id=5000 + i,
        )
        for i in range(12)
    ]
    heuristic = HeuristicClassifier(known_community_accounts={"TG-COMM"})
    classification = heuristic.classify(records)
    counts = classification.users_by_modality()
    assert counts[Modality.GATEWAY] == 1  # 12 users invisible behind 1 account
    assert classification.identity_primary["gw_portal"] is Modality.GATEWAY


def test_heuristic_without_community_knowledge_misreads_gateway(make_record):
    records = [
        make_record(
            user="gw_portal",
            account="TG-COMM",
            submit=i * HOUR,
            cores=1,
            elapsed=10 * MINUTE,
            job_id=5200 + i,
        )
        for i in range(12)
    ]
    classification = HeuristicClassifier().classify(records)
    assert classification.identity_primary["gw_portal"] in (
        Modality.EXPLORATORY,
        Modality.BATCH,
    )


def test_heuristic_detects_ensemble_bursts(make_record):
    records = [
        make_record(
            user="sweeper",
            cores=16,
            submit=i * 30.0,
            elapsed=HOUR,
            attributes={AttributeKeys.ENSEMBLE_ID: "hidden"},
            job_id=5300 + i,
        )
        for i in range(20)
    ]
    classification = HeuristicClassifier().classify(records)
    assert classification.identity_primary["sweeper"] is Modality.ENSEMBLE
    # attributes were ignored, not used:
    for label in classification.job_labels.values():
        assert label is Modality.ENSEMBLE


def test_heuristic_detects_coupled_coincident_starts(make_record):
    records = [
        make_record(
            user="coupler",
            resource=site,
            cores=128,
            walltime=4 * HOUR,
            submit=0.0,
            wait=100.0,
            elapsed=2 * HOUR,
            job_id=5400 + i,
        )
        for i, site in enumerate(["ranger", "kraken"])
    ]
    classification = HeuristicClassifier().classify(records)
    for record_id in (5400, 5401):
        assert classification.job_labels[record_id] is Modality.COUPLED


def test_heuristic_same_site_coincidence_not_coupled(make_record):
    records = [
        make_record(
            user="just-lucky",
            resource="ranger",
            cores=4,
            walltime=HOUR,
            submit=0.0,
            wait=100.0,
            elapsed=HOUR / 2,
            job_id=5500 + i,
        )
        for i in range(2)
    ]
    classification = HeuristicClassifier().classify(records)
    for record_id in (5500, 5501):
        assert classification.job_labels[record_id] is not Modality.COUPLED


def test_heuristic_viz_via_interactive_queue(make_record):
    records = [
        make_record(
            user="vizzer",
            queue_name="interactive",
            cores=1,
            elapsed=2 * HOUR,
            submit=i * 10 * HOUR,
            job_id=5600 + i,
        )
        for i in range(3)
    ]
    classification = HeuristicClassifier().classify(records)
    assert classification.identity_primary["vizzer"] is Modality.VIZ


def test_classifiers_are_deterministic(make_record):
    records = (
        batch_like(make_record)
        + exploratory_like(make_record)
        + [
            make_record(
                user="gw",
                attributes={AttributeKeys.SUBMIT_INTERFACE: "gateway"},
                job_id=6000,
            )
        ]
    )
    a = AttributeClassifier().classify(records)
    b = AttributeClassifier().classify(list(reversed(records)))
    assert a.job_labels == b.job_labels
    assert a.identity_primary == b.identity_primary


def test_every_job_gets_a_label(make_record):
    records = batch_like(make_record) + exploratory_like(make_record)
    for classifier in (AttributeClassifier(), HeuristicClassifier()):
        classification = classifier.classify(records)
        assert set(classification.job_labels) == {r.job_id for r in records}
        for label in classification.job_labels.values():
            assert isinstance(label, Modality)


def test_config_thresholds_are_respected(make_record):
    # With an absurdly high runtime threshold everything looks exploratory.
    config = ClassifierConfig(
        exploratory_max_median_elapsed=100 * HOUR,
        exploratory_max_median_cores=1e9,
    )
    records = batch_like(make_record, user="prod2", start_id=7000)
    classification = AttributeClassifier(config).classify(records)
    assert classification.identity_primary["prod2"] is Modality.EXPLORATORY

"""Tests for usage metrics aggregation."""

from statistics import median

import pytest
from hypothesis import given, strategies as st

from repro.core.classifier import AttributeClassifier
from repro.core.metrics import compute_metrics, gini
from repro.core.modalities import Modality
from repro.infra.job import AttributeKeys
from repro.infra.units import HOUR, MINUTE


def test_gini_equal_distribution_is_zero():
    assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)


def test_gini_total_concentration_approaches_one():
    value = gini([0.0] * 99 + [100.0])
    assert value > 0.95


def test_gini_validation():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([-1.0, 2.0])
    assert gini([0.0, 0.0]) == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_gini_bounded_and_scale_invariant(values):
    g = gini(values)
    assert -1e-9 <= g <= 1.0
    if sum(values) > 0:
        assert gini([v * 3.0 for v in values]) == pytest.approx(g, abs=1e-9)


def mixed_records(make_record):
    records = []
    # Batch user: 2 big long jobs.
    for i in range(2):
        records.append(
            make_record(user="prod", cores=64, elapsed=4 * HOUR,
                        submit=i * 10 * HOUR, resource="ranger",
                        job_id=8000 + i)
        )
    # Gateway user: 4 tiny jobs.
    for i in range(4):
        records.append(
            make_record(
                user="gw",
                cores=1,
                elapsed=10 * MINUTE,
                submit=i * HOUR,
                resource="abe",
                attributes={
                    AttributeKeys.SUBMIT_INTERFACE: "gateway",
                    AttributeKeys.GATEWAY_NAME: "portal",
                    AttributeKeys.GATEWAY_USER: "end1",
                },
                job_id=8100 + i,
            )
        )
    return records


def test_metrics_totals_and_splits(make_record):
    records = mixed_records(make_record)
    classification = AttributeClassifier().classify(records)
    metrics = compute_metrics(records, classification)
    assert metrics.total_jobs == 6
    assert metrics.jobs[Modality.BATCH] == 2
    assert metrics.jobs[Modality.GATEWAY] == 4
    assert metrics.users[Modality.BATCH] == 1
    assert metrics.users[Modality.GATEWAY] == 1
    # batch NUs dwarf gateway NUs
    assert metrics.nu[Modality.BATCH] > 100 * metrics.nu[Modality.GATEWAY]
    assert metrics.total_nu == pytest.approx(sum(r.charged_nu for r in records))
    assert metrics.nu_share(Modality.BATCH) > 0.9


def test_metrics_per_site_breakdown(make_record):
    records = mixed_records(make_record)
    classification = AttributeClassifier().classify(records)
    metrics = compute_metrics(records, classification)
    assert set(metrics.by_site_nu) == {"ranger", "abe"}
    assert metrics.by_site_nu["ranger"].get(Modality.BATCH, 0) > 0
    assert Modality.GATEWAY not in metrics.by_site_nu["ranger"]


def test_jobs_per_user_and_percentiles(make_record):
    records = mixed_records(make_record)
    classification = AttributeClassifier().classify(records)
    metrics = compute_metrics(records, classification)
    assert metrics.jobs_per_user(Modality.GATEWAY) == 4.0
    assert metrics.jobs_per_user(Modality.COUPLED) == 0.0
    assert median(metrics.job_sizes[Modality.BATCH]) == 64.0
    assert metrics.job_sizes[Modality.COUPLED] == []
    assert median(metrics.wait_times[Modality.BATCH]) == 600.0
    assert metrics.wait_times[Modality.VIZ] == []


def test_metrics_requires_labels_for_all_records(make_record):
    records = mixed_records(make_record)
    classification = AttributeClassifier().classify(records[:-1])
    with pytest.raises(ValueError):
        compute_metrics(records, classification)


def test_usage_gini_reflects_concentration(make_record):
    records = mixed_records(make_record)
    classification = AttributeClassifier().classify(records)
    metrics = compute_metrics(records, classification)
    assert 0.0 < metrics.usage_gini <= 1.0

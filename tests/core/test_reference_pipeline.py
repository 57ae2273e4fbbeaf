"""Differential tests: the measurement pipeline against its plain reference.

Both classifiers and ``compute_metrics`` must give, field by field, what the
reference in ``reference_pipeline.py`` gives: the same job labels, modality
sets and primaries, the same identity order and per-identity record order
in the views, and the same metrics, to the last bit of every float.
"""

import dataclasses

import pytest

from repro.core.classifier import (
    AttributeClassifier,
    HeuristicClassifier,
    _residual_statistics,
)
from repro.core.metrics import ModalityMetrics, compute_metrics
from repro.core.modalities import Modality
from repro.infra.accounting import UsageRecord
from repro.infra.job import AttributeKeys, JobState
from repro.infra.units import HOUR, MINUTE
from repro.workloads.synthetic import CampaignKey, run_scenario
from tests.core import reference_pipeline as reference

COMMUNITY = frozenset({"TG-PORTAL"})


class Sealed(UsageRecord):
    """A record whose attributes cannot be read at all."""

    __slots__ = ()

    @property
    def attributes(self):
        raise AssertionError(f"job {self.job_id}: an attribute was read")


def assert_same_classification(found, expected):
    assert found.job_labels == expected.job_labels
    assert list(found.identity_modalities.items()) == list(
        expected.identity_modalities.items()
    )
    assert list(found.identity_primary.items()) == list(
        expected.identity_primary.items()
    )
    assert list(found.views) == list(expected.views)
    for identity, view in expected.views.items():
        assert found.views[identity].identity == identity
        assert [r.job_id for r in found.views[identity].records] == [
            r.job_id for r in view.records
        ], identity


def ordered(value):
    """``value`` with every dict as its item list, so key order counts too."""
    if isinstance(value, dict):
        return [(key, ordered(item)) for key, item in value.items()]
    return value


def assert_same_metrics(found, expected):
    for spec in dataclasses.fields(ModalityMetrics):
        assert ordered(getattr(found, spec.name)) == ordered(
            getattr(expected, spec.name)
        ), spec.name


def assert_same_statistics(views):
    for view in views.values():
        assert _residual_statistics(
            view.records
        ) == reference.residual_statistics(view.records), view.identity


def check_pipeline(records, community):
    records = list(records)
    instrumented = AttributeClassifier().classify(records)
    expected = reference.attribute_classify(records)
    assert_same_classification(instrumented, expected)
    assert_same_metrics(
        compute_metrics(records, instrumented),
        reference.compute_metrics(records, expected),
    )

    heuristic = HeuristicClassifier(known_community_accounts=community)
    expected = reference.heuristic_classify(records, community)
    assert_same_classification(heuristic.classify(records), expected)
    # The heuristic path reads no attribute: records that refuse every
    # attribute read classify exactly as the reference's stripped copies do.
    assert_same_classification(
        heuristic.classify([Sealed(*record) for record in records]), expected
    )
    assert_same_metrics(
        compute_metrics(records, heuristic.classify(records)),
        reference.compute_metrics(records, expected),
    )
    assert_same_statistics(instrumented.views)
    assert_same_statistics(expected.views)


@pytest.fixture(scope="module", params=[1, 2], ids=["seed1", "seed2"])
def campaign(request):
    return run_scenario(CampaignKey.make(days=15, seed=request.param).config())


def test_campaign_matches_the_reference(campaign):
    records = campaign.records
    assert len({r.job_id for r in records}) == len(records)
    check_pipeline(records, frozenset(campaign.community_accounts))


@pytest.fixture
def hand_built(make_record):
    """Small identities that hit each branch of both classifiers."""
    records = []
    ids = iter(range(1, 1000))

    def add(count, **kwargs):
        for i in range(count):
            fields = {key: value(i) if callable(value) else value
                      for key, value in kwargs.items()}
            records.append(make_record(job_id=next(ids), **fields))

    # Residual identities with an odd and an even number of jobs (and
    # distinct runtimes and sizes, so each median is a real middle).
    add(5, user="odd", submit=lambda i: i * 6 * HOUR,
        elapsed=lambda i: (5 - i) * 10 * MINUTE, cores=lambda i: 2 ** i)
    add(4, user="even", submit=lambda i: i * 6 * HOUR,
        elapsed=lambda i: (i + 1) * 7 * MINUTE, cores=lambda i: 3 + i,
        state=lambda i: JobState.FAILED if i == 0 else JobState.COMPLETED)
    # No job ever started; and every job cancelled after it started.
    add(3, user="queued", submit=lambda i: i * HOUR, wait=None, elapsed=0.0,
        state=JobState.CANCELLED)
    add(3, user="quitter", submit=lambda i: i * HOUR, elapsed=2 * MINUTE,
        state=JobState.CANCELLED)
    # One portal: tagged jobs resolve to end users, untagged ones do not.
    add(4, user="gw_portal", account="TG-PORTAL", cores=1,
        submit=lambda i: 100.0 + i, elapsed=5 * MINUTE,
        attributes=lambda i: {
            AttributeKeys.SUBMIT_INTERFACE: "gateway",
            AttributeKeys.GATEWAY_NAME: "portal",
            AttributeKeys.GATEWAY_USER: f"student{i % 2}",
        })
    add(2, user="gw_portal", account="TG-PORTAL", cores=1,
        submit=lambda i: 200.0 + i, elapsed=5 * MINUTE,
        attributes={AttributeKeys.SUBMIT_INTERFACE: "gateway"})
    # A coupled pair: synchronized starts on two machines, same walltime.
    add(2, user="coupler", cores=256, submit=1000.0,
        resource=lambda i: ("ranger", "kraken")[i],
        wait=lambda i: 600.0 + 30 * i, elapsed=HOUR,
        attributes={AttributeKeys.COALLOCATION_ID: "coalloc-1"})
    # An ensemble burst, its tail cut by a size change; ties in submit
    # time are broken by job id.
    add(6, user="sweeper", cores=lambda i: 8 if i < 5 else 16,
        submit=lambda i: 5000.0 + 60 * (i // 2),
        attributes=lambda i: {AttributeKeys.ENSEMBLE_ID: "ens-1"} if i < 5 else {})
    add(2, user="viewer", queue_name="interactive", submit=lambda i: i * HOUR)
    # Accounting delivers records by end time, not by submission; equal
    # end times come in falling job-id order, so the views must reorder them.
    records.sort(key=lambda r: (r.end_time, -r.job_id))
    return records


def test_hand_built_cases_match_the_reference(hand_built):
    check_pipeline(hand_built, COMMUNITY)
    # The cases reach every label of both classifiers.
    instrumented = AttributeClassifier().classify(hand_built)
    heuristic = HeuristicClassifier(
        known_community_accounts=COMMUNITY
    ).classify(hand_built)
    assert set(instrumented.job_labels.values()) == set(Modality)
    assert set(heuristic.job_labels.values()) == set(Modality)
    assert {"portal:student0", "portal:student1", "gw_portal"} <= set(
        instrumented.views
    )

"""Tests for identity resolution, submission bursts and identity views."""

import pytest

from repro.core.records import (
    build_identity_views,
    burst_membership,
    resolve_identity,
)
from repro.infra.job import AttributeKeys


def test_identity_defaults_to_account_user(make_record):
    record = make_record(user="alice")
    assert resolve_identity(record) == "alice"


def test_identity_uses_gateway_attribute_when_present(make_record):
    record = make_record(
        user="gw_nanohub",
        attributes={
            AttributeKeys.GATEWAY_USER: "student7",
            AttributeKeys.GATEWAY_NAME: "nanohub",
        },
    )
    assert resolve_identity(record) == "nanohub:student7"
    assert resolve_identity(record, use_attributes=False) == "gw_nanohub"


def test_untagged_gateway_job_collapses_to_community_user(make_record):
    record = make_record(
        user="gw_nanohub",
        attributes={AttributeKeys.SUBMIT_INTERFACE: "gateway"},
    )
    assert resolve_identity(record) == "gw_nanohub"


def test_burst_membership_flags_runs_of_similar_jobs(make_record):
    burst = [
        make_record(cores=8, submit=i * 60.0, job_id=100 + i) for i in range(6)
    ]
    loner = make_record(cores=8, submit=1e6, job_id=200)
    flags = burst_membership(burst + [loner], window=1800.0, min_size=5)
    assert flags == [True] * 6 + [False]


def test_burst_membership_breaks_on_core_change(make_record):
    records = [
        make_record(cores=8 if i < 3 else 16, submit=i * 60.0, job_id=300 + i)
        for i in range(6)
    ]
    flags = burst_membership(records, window=1800.0, min_size=5)
    assert flags == [False] * 6


def test_burst_membership_requires_submission_order(make_record):
    records = [make_record(submit=100.0, job_id=401), make_record(submit=0.0, job_id=400)]
    with pytest.raises(ValueError):
        burst_membership(records, window=1800.0, min_size=2)
    # Equal submission times are in submission order by job id.
    tied = [make_record(submit=0.0, job_id=403), make_record(submit=0.0, job_id=402)]
    with pytest.raises(ValueError):
        burst_membership(tied, window=1800.0, min_size=2)
    assert burst_membership(tied[::-1], window=1800.0, min_size=2) == [True, True]


def test_build_identity_views_groups_in_submission_order(make_record):
    records = [
        make_record(user="alice", submit=900.0, job_id=3),
        make_record(user="bob", submit=0.0, job_id=2),
        make_record(user="alice", submit=60.0, job_id=4),
        # Same submission time as job 4: the job id breaks the tie.
        make_record(user="alice", submit=60.0, job_id=1),
        make_record(
            user="gw_x",
            submit=30.0,
            job_id=5,
            attributes={
                AttributeKeys.GATEWAY_USER: "enduser",
                AttributeKeys.GATEWAY_NAME: "portal",
            },
        ),
    ]
    views = build_identity_views(records)
    # Identities in order of first appearance; records in submission order.
    assert list(views) == ["alice", "bob", "portal:enduser"]
    assert all(view.identity == name for name, view in views.items())
    assert [r.job_id for r in views["alice"].records] == [1, 4, 3]
    assert [r.job_id for r in views["bob"].records] == [2]
    assert [r.job_id for r in views["portal:enduser"].records] == [5]


def test_build_identity_views_without_attributes(make_record):
    records = [
        make_record(
            user="gw_x",
            attributes={
                AttributeKeys.GATEWAY_USER: f"enduser{i}",
                AttributeKeys.GATEWAY_NAME: "portal",
            },
            job_id=600 + i,
        )
        for i in range(5)
    ]
    instrumented = build_identity_views(records, use_attributes=True)
    bare = build_identity_views(records, use_attributes=False)
    assert len(instrumented) == 5
    assert len(bare) == 1  # the collapse


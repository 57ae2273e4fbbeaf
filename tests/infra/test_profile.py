"""Tests for the capacity profile (step-function availability)."""

import pytest
from hypothesis import given, strategies as st

from repro.infra.scheduler.profile import CapacityProfile


def test_empty_profile_is_fully_available():
    profile = CapacityProfile(10, now=0.0)
    assert profile.available_during(0.0, 100.0) == 10
    assert profile.earliest_start(10, 50.0) == 0.0


def test_single_usage_blocks_window():
    profile = CapacityProfile(10, now=0.0)
    profile.add_usage(0.0, 100.0, 6)
    assert profile.available_during(0.0, 50.0) == 4
    assert profile.available_during(100.0, 50.0) == 10
    # window straddling the release sees the minimum
    assert profile.available_during(50.0, 100.0) == 4


def test_earliest_start_waits_for_release():
    profile = CapacityProfile(10, now=0.0)
    profile.add_usage(0.0, 100.0, 6)
    assert profile.earliest_start(4, 10.0) == 0.0
    assert profile.earliest_start(5, 10.0) == 100.0


def test_earliest_start_finds_gap_between_usages():
    profile = CapacityProfile(10, now=0.0)
    profile.add_usage(0.0, 50.0, 8)
    profile.add_usage(200.0, 300.0, 8)
    # 10-duration window for 5 nodes fits in the gap [50, 200)
    assert profile.earliest_start(5, 10.0) == 50.0
    # but a 200-duration window must wait until the second usage ends
    assert profile.earliest_start(5, 200.0) == 300.0


def test_usage_in_the_past_is_clipped():
    profile = CapacityProfile(10, now=100.0)
    profile.add_usage(0.0, 50.0, 10)  # fully in the past: ignored
    assert profile.available_during(100.0, 10.0) == 10
    profile.add_usage(0.0, 150.0, 4)  # clipped to [100, 150)
    assert profile.available_during(100.0, 10.0) == 6


def test_not_before_respected():
    profile = CapacityProfile(10, now=0.0)
    assert profile.earliest_start(10, 10.0, not_before=500.0) == 500.0


def test_overlapping_usages_accumulate():
    profile = CapacityProfile(10, now=0.0)
    profile.add_usage(0.0, 100.0, 4)
    profile.add_usage(50.0, 150.0, 4)
    assert profile.available_during(0.0, 49.0) == 6
    assert profile.available_during(50.0, 10.0) == 2
    assert profile.available_during(100.0, 10.0) == 6


def test_window_ending_exactly_at_usage_start_is_free():
    profile = CapacityProfile(10, now=0.0)
    profile.add_usage(100.0, 200.0, 10)
    assert profile.available_during(0.0, 100.0) == 10
    assert profile.earliest_start(10, 100.0) == 0.0


def test_validation():
    with pytest.raises(ValueError):
        CapacityProfile(0, now=0.0)
    profile = CapacityProfile(5, now=0.0)
    with pytest.raises(ValueError):
        profile.add_usage(0.0, 10.0, -1)
    with pytest.raises(ValueError):
        profile.available_during(0.0, 0.0)
    with pytest.raises(ValueError):
        profile.earliest_start(6, 10.0)
    with pytest.raises(ValueError):
        profile.earliest_start(0, 10.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1000),  # start
            st.floats(min_value=1, max_value=500),  # length
            st.integers(min_value=1, max_value=5),  # nodes
        ),
        max_size=15,
    ),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=1, max_value=400),
)
def test_earliest_start_result_is_actually_feasible(usages, nodes, duration):
    """Property: the window returned by earliest_start really has capacity."""
    profile = CapacityProfile(8, now=0.0)
    for start, length, used in usages:
        profile.add_usage(start, start + length, used)
    start = profile.earliest_start(nodes, duration)
    assert start >= 0.0
    assert profile.available_during(start, duration) >= nodes


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=1, max_value=50),
            st.integers(min_value=1, max_value=5),
        ),
        max_size=10,
    ),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=40),
)
def test_earliest_start_is_minimal_on_integer_grid(usages, nodes, duration):
    """Property: no strictly earlier integer start is feasible."""
    profile = CapacityProfile(8, now=0.0)
    for start, length, used in usages:
        profile.add_usage(float(start), float(start + length), used)
    best = profile.earliest_start(nodes, float(duration))
    for candidate in range(int(best)):
        assert profile.available_during(float(candidate), float(duration)) < nodes


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),  # release
            st.integers(min_value=1, max_value=4),  # nodes
        ),
        max_size=12,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),  # start
            st.integers(min_value=1, max_value=10),  # length
            st.integers(min_value=1, max_value=4),  # nodes
        ),
        max_size=4,
    ),
    st.integers(min_value=0, max_value=20),  # now
)
def test_add_releases_equals_one_add_usage_per_release(releases, usages, now):
    """Seeding from sorted releases gives the same steps as one add_usage
    from now per running job, releases at or before now included, with
    reservations on top."""
    seeded, direct = CapacityProfile(8, now=now), CapacityProfile(8, now=now)
    seeded.add_releases(sorted((float(t), n) for t, n in releases))
    for release, used in releases:
        direct.add_usage(float(now), float(release), used)
    for profile in (seeded, direct):
        for start, length, used in usages:
            profile.add_usage(float(start), float(start + length), used)
    assert seeded._deltas == direct._deltas
    assert seeded._steps() == direct._steps()

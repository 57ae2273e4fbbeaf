"""Tests for workload distributions and arrival processes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.distributions import (
    DiurnalProfile,
    SECONDS_PER_DAY,
    bounded_lognormal,
    bounded_weibull,
    discrete_choice,
    hyperexponential,
    log2_cores,
    nonhomogeneous_poisson,
    zipf_weights,
)
from tests.strategies import lognormal_medians, lognormal_sigmas


def rng():
    return np.random.default_rng(1234)


@given(lognormal_medians, lognormal_sigmas)
def test_bounded_lognormal_respects_bounds(median, sigma):
    generator = np.random.default_rng(0)
    low, high = 0.5, 1e5
    for _ in range(20):
        value = bounded_lognormal(generator, median, sigma, low, high)
        assert low <= value <= high


def test_bounded_lognormal_median_is_roughly_right():
    generator = rng()
    draws = [bounded_lognormal(generator, 100.0, 1.0, 1e-3, 1e9) for _ in range(4000)]
    assert 85.0 < float(np.median(draws)) < 115.0


def test_bounded_lognormal_validation():
    with pytest.raises(ValueError):
        bounded_lognormal(rng(), -1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        bounded_lognormal(rng(), 1.0, 1.0, 5.0, 2.0)


def test_bounded_weibull_respects_bounds():
    generator = rng()
    for _ in range(100):
        assert 1.0 <= bounded_weibull(generator, 10.0, 0.7, 1.0, 50.0) <= 50.0


def test_hyperexponential_mean():
    generator = rng()
    draws = [hyperexponential(generator, [1.0, 100.0], [0.9, 0.1]) for _ in range(20000)]
    expected = 0.9 * 1.0 + 0.1 * 100.0
    assert abs(np.mean(draws) - expected) / expected < 0.1


def test_zipf_weights_normalized_and_decreasing():
    weights = zipf_weights(10, alpha=1.2)
    assert math.isclose(weights.sum(), 1.0, rel_tol=1e-12)
    assert all(weights[i] > weights[i + 1] for i in range(9))


def test_zipf_weights_validation():
    with pytest.raises(ValueError):
        zipf_weights(0)


def test_discrete_choice_uses_weights():
    generator = rng()
    picks = [discrete_choice(generator, ["a", "b"], [0.0, 1.0]) for _ in range(50)]
    assert set(picks) == {"b"}


def test_discrete_choice_rejects_zero_weights():
    with pytest.raises(ValueError):
        discrete_choice(rng(), ["a"], [0.0])


def test_log2_cores_is_power_of_two_within_bounds():
    generator = rng()
    for _ in range(200):
        cores = log2_cores(generator, 1, 1024, mean_log2=5, sigma_log2=2)
        assert 1 <= cores <= 1024
        assert cores & (cores - 1) == 0  # power of two


def test_log2_cores_respects_non_power_bounds():
    generator = rng()
    for _ in range(100):
        cores = log2_cores(generator, 3, 100, mean_log2=10, sigma_log2=0.1)
        assert 3 <= cores <= 100


def test_diurnal_profile_peak_exceeds_trough():
    profile = DiurnalProfile(day_amplitude=0.5, weekend_factor=1.0, peak_hour=15.0)
    peak = profile.intensity(15 * 3600.0)
    trough = profile.intensity(3 * 3600.0)
    assert peak > trough
    assert math.isclose(peak, 1.5, rel_tol=1e-9)


def test_diurnal_profile_weekend_scaling():
    profile = DiurnalProfile(day_amplitude=0.0, weekend_factor=0.5, peak_hour=12.0)
    monday = profile.intensity(0.0)
    saturday = profile.intensity(5 * SECONDS_PER_DAY)
    assert math.isclose(saturday, 0.5 * monday, rel_tol=1e-9)


def test_poisson_arrivals_increasing_and_rate_close():
    generator = rng()
    arrivals = list(itertools.islice(
        nonhomogeneous_poisson(generator, base_rate=0.01), 2000))
    assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
    mean_gap = arrivals[-1] / len(arrivals)
    assert abs(mean_gap - 100.0) / 100.0 < 0.1


def test_modulated_poisson_concentrates_at_peak():
    generator = rng()
    profile = DiurnalProfile(day_amplitude=0.9, weekend_factor=1.0, peak_hour=12.0)
    arrivals = list(itertools.islice(
        nonhomogeneous_poisson(generator, base_rate=0.01, profile=profile), 5000))
    hours = [(t % SECONDS_PER_DAY) / 3600.0 for t in arrivals]
    near_peak = sum(1 for h in hours if 9 <= h <= 15)
    near_trough = sum(1 for h in hours if h <= 3 or h >= 21)
    assert near_peak > 2 * near_trough


def test_poisson_rate_validation():
    with pytest.raises(ValueError):
        next(nonhomogeneous_poisson(rng(), base_rate=0.0))

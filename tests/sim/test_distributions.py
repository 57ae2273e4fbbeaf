"""Tests for the workload samplers."""

import numpy as np
import pytest
from hypothesis import given

from repro.sim.distributions import bounded_lognormal, log2_cores
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

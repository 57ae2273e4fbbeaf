"""Tests for the workload samplers."""

import math

import numpy as np
import pytest
from hypothesis import given

from repro.infra.units import DAY, HOUR
from repro.sim.distributions import bounded_lognormal, log2_cores, uniform
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


# -- the scalar uniform draw against numpy's own method ------------------------
# numpy defines Generator.uniform by the expression `uniform` computes.  A
# numpy that redefines it fails here, not as a changed report.

#: spreads the simulation draws from: sample_job's failure and underestimate
#: fractions, the users' pauses and adoption ramp, walltime pads, hero runtimes
SPREADS = [
    (0.02, 0.5),
    (0.5, 0.95),
    (60.0, 600.0),
    (5.0, 60.0),
    (0.0, 30 * DAY),
    (1.1, 3.0),
    (2.0, 5.0),
    (4 * HOUR, 10 * HOUR),
]


@pytest.mark.parametrize("low, high", SPREADS)
def test_uniform_matches_numpy_bit_for_bit(low, high):
    for seed in (0, 1):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = [uniform(ours, low, high) for _ in range(10_000)]
        assert drawn == [theirs.uniform(low, high) for _ in range(10_000)]
        assert all(type(value) is float for value in drawn)
        assert ours.random() == theirs.random()  # the streams moved alike


INF, NAN = math.inf, math.nan

#: spreads numpy rejects, and edge values it accepts
EDGES = [
    (1.0, 0.0),
    (0.0, -0.0),
    (0.0, INF),
    (0.0, -INF),
    (-INF, 0.0),
    (INF, INF),
    (NAN, 1.0),
    (0.0, NAN),
    (-1e308, 1e308),
    (1.0, 1.0),
    (-0.0, 0.0),
]


def _outcome(draw):
    """The exception type or the value's repr, and the stream's next draw."""
    rng = np.random.default_rng(7)
    try:
        outcome = repr(draw(rng))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        outcome = type(exc)
    return outcome, rng.random()


@pytest.mark.parametrize("low, high", EDGES)
def test_uniform_raises_what_numpy_raises(low, high):
    ours = _outcome(lambda rng: uniform(rng, low, high))
    assert ours == _outcome(lambda rng: rng.uniform(low, high))

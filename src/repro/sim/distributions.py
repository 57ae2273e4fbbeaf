"""Samplers and arrival processes used by the workload models.

All samplers take an explicit :class:`numpy.random.Generator` so callers
control stream identity (see :mod:`repro.sim.rng`).  Heavy-tailed quantities
(runtimes, job sizes, think times) are modelled with bounded lognormals and
Weibulls, the standard choices in the workload-modelling literature
(Lublin & Feitelson, JPDC 2003); arrival processes support diurnal and weekly
intensity modulation via thinning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "bounded_lognormal",
    "bounded_weibull",
    "hyperexponential",
    "zipf_weights",
    "discrete_choice",
    "log2_cores",
    "DiurnalProfile",
    "nonhomogeneous_poisson",
]

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


def bounded_lognormal(
    rng: np.random.Generator,
    median: float,
    sigma: float,
    low: float,
    high: float,
) -> float:
    """A lognormal draw with the given *median*, clipped to ``[low, high]``.

    Parameterizing by the median (``exp(mu)``) keeps workload configs legible:
    "median runtime 2 h, sigma 1.2" reads directly.
    """
    if not (0 < low <= high):
        raise ValueError(f"need 0 < low <= high, got low={low}, high={high}")
    if median <= 0:
        raise ValueError(f"median must be positive, got {median}")
    value = median * math.exp(sigma * rng.standard_normal())
    return min(max(value, low), high)


def bounded_weibull(
    rng: np.random.Generator,
    scale: float,
    shape: float,
    low: float,
    high: float,
) -> float:
    """A Weibull(scale, shape) draw clipped to ``[low, high]``."""
    if scale <= 0 or shape <= 0:
        raise ValueError("scale and shape must be positive")
    value = scale * rng.weibull(shape)
    return min(max(value, low), high)


def hyperexponential(
    rng: np.random.Generator,
    means: Sequence[float],
    weights: Sequence[float],
) -> float:
    """Mixture of exponentials: pick a branch by ``weights``, draw its mean."""
    if len(means) != len(weights) or not means:
        raise ValueError("means and weights must be equal-length, non-empty")
    probs = np.asarray(weights, dtype=float)
    probs = probs / probs.sum()
    branch = rng.choice(len(means), p=probs)
    return float(rng.exponential(means[branch]))


def zipf_weights(n: int, alpha: float = 1.0) -> np.ndarray:
    """Normalized Zipf weights ``k^-alpha`` for ranks ``1..n``.

    Used for skewed popularity (users per gateway, data-collection access).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-alpha
    return weights / weights.sum()


def discrete_choice(rng: np.random.Generator, options: Sequence, weights: Sequence[float]):
    """Pick one of ``options`` with the given (unnormalized) weights."""
    probs = np.asarray(weights, dtype=float)
    total = probs.sum()
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    index = rng.choice(len(options), p=probs / total)
    return options[index]


def log2_cores(
    rng: np.random.Generator,
    min_cores: int,
    max_cores: int,
    mean_log2: float,
    sigma_log2: float,
) -> int:
    """Sample a power-of-two-leaning core count.

    Parallel job sizes cluster at powers of two (Feitelson's workload
    observations); we draw log2(size) from a rounded normal and clip.
    """
    if not (1 <= min_cores <= max_cores):
        raise ValueError("need 1 <= min_cores <= max_cores")
    lo = math.log2(min_cores)
    hi = math.log2(max_cores)
    raw = rng.normal(mean_log2, sigma_log2)
    exponent = int(round(min(max(raw, lo), hi)))
    cores = 2**exponent
    return int(min(max(cores, min_cores), max_cores))


@dataclass(frozen=True)
class DiurnalProfile:
    """Multiplicative intensity modulation over the day and week.

    ``day_amplitude`` in [0, 1): 0 gives a flat profile, 0.6 gives peak-hour
    intensity 1.6x the mean and night-time 0.4x.  ``weekend_factor`` scales
    Saturday/Sunday intensity.  ``peak_hour`` is the local hour of maximum
    intensity.
    """

    day_amplitude: float = 0.5
    weekend_factor: float = 0.6
    peak_hour: float = 15.0

    def intensity(self, t: float) -> float:
        """Relative intensity (mean approximately 1) at simulated second ``t``."""
        hour = (t % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        phase = 2 * math.pi * (hour - self.peak_hour) / 24.0
        factor = 1.0 + self.day_amplitude * math.cos(phase)
        day_index = int(t // SECONDS_PER_DAY) % 7  # day 0 = Monday
        if day_index >= 5:
            factor *= self.weekend_factor
        return max(factor, 0.0)

    @property
    def max_intensity(self) -> float:
        return 1.0 + self.day_amplitude


def nonhomogeneous_poisson(
    rng: np.random.Generator,
    base_rate: float,
    profile: DiurnalProfile | None = None,
    start: float = 0.0,
) -> Iterator[float]:
    """Yield successive arrival times of a (possibly modulated) Poisson process.

    ``base_rate`` is the mean arrival rate (events per second).  With a
    :class:`DiurnalProfile`, arrivals are thinned against the profile's
    intensity (Lewis & Shedler 1979); without one, the process is homogeneous.
    """
    if base_rate <= 0:
        raise ValueError(f"base_rate must be positive, got {base_rate}")
    t = float(start)
    if profile is None:
        while True:
            t += rng.exponential(1.0 / base_rate)
            yield t
    else:
        ceiling = base_rate * profile.max_intensity
        while True:
            t += rng.exponential(1.0 / ceiling)
            if rng.random() <= (base_rate * profile.intensity(t)) / ceiling:
                yield t

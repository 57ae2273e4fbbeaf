"""Samplers used by the workload models.

All samplers take an explicit :class:`numpy.random.Generator` so callers
control stream identity (see :mod:`repro.sim.rng`).  Runtimes and think times
are modelled with bounded lognormals, and job sizes lean to powers of two,
the standard choices in the workload-modelling literature (Lublin &
Feitelson, JPDC 2003).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bounded_lognormal", "log2_cores"]


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

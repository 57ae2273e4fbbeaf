"""Samplers used by the workload models.

All samplers take an explicit :class:`numpy.random.Generator` so callers
control stream identity (see :mod:`repro.sim.rng`).  Runtimes and think times
are modelled with bounded lognormals, and job sizes lean to powers of two,
the standard choices in the workload-modelling literature (Lublin &
Feitelson, JPDC 2003).

:func:`uniform` is the scalar uniform draw the simulation makes per job and
per session.  numpy's ``Generator`` defines ``uniform(a, b)`` as exactly
``a + (b - a) * random()``, so this form returns the same doubles from the
same stream and raises what numpy raises on bad arguments; it skips the
array conversions numpy makes first, which make a scalar ``uniform(a, b)``
about three times as costly as ``random()``.
``tests/sim/test_distributions.py`` holds it to numpy's own method.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bounded_lognormal", "log2_cores", "uniform"]

_INF = math.inf


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``rng.uniform(low, high)``: a draw from ``[low, high)``."""
    span = high - low
    # numpy refuses a spread that is not finite (NaN too) and one whose sign
    # bit is set (-0.0 too); the positive finite spreads the simulation
    # passes clear the chained comparison at once.
    if not 0.0 < span < _INF:
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0:
            raise ValueError("high - low < 0")
    return low + span * rng.random()


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

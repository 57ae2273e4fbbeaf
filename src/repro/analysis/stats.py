"""Summary statistics for experiment analysis.

:func:`describe` summarises one sample; R1 reports its run-to-run spread
across seeds with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["SummaryStats", "describe"]


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of one sample."""

    n: int
    mean: float
    std: float
    median: float
    p10: float
    p90: float
    minimum: float
    maximum: float

    def __str__(self) -> str:  # pragma: no cover - display convenience
        return (
            f"n={self.n} mean={self.mean:.3g} median={self.median:.3g} "
            f"p10={self.p10:.3g} p90={self.p90:.3g}"
        )


def describe(values: Iterable[float]) -> SummaryStats:
    """Summary statistics of a non-empty sample."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("describe() of an empty sample")
    return SummaryStats(
        n=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        median=float(np.median(array)),
        p10=float(np.percentile(array, 10)),
        p90=float(np.percentile(array, 90)),
        minimum=float(array.min()),
        maximum=float(array.max()),
    )

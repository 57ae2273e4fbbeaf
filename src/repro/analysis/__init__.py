"""Statistical utilities for experiment analysis."""

from repro.analysis.stats import SummaryStats, describe

__all__ = ["SummaryStats", "describe"]

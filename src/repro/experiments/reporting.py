"""Run the whole experiment suite and assemble one report.

``python -m repro run-all`` regenerates every registered table/figure
through :func:`generate_report` and concatenates them — the programmatic
source of EXPERIMENTS.md's measured sections.  ``fast=True`` substitutes
reduced horizons (:data:`FAST_KNOBS`) for a minutes-scale smoke report.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from repro.experiments.base import ExperimentOutput, registry

__all__ = ["FAST_KNOBS", "generate_report"]

#: Reduced-horizon knobs per experiment for smoke reports.
FAST_KNOBS: dict[str, dict] = {
    "T1": {"days": 15.0},
    "T2": {"days": 15.0},
    "T3": {"days": 15.0},
    "T4": {"days": 15.0},
    "T5": {"days": 15.0},
    "T6": {"days": 15.0},
    "T7": {"days": 15.0},
    "T8": {"days": 15.0},
    "F1": {"days": 60.0, "gateway_adoption_ramp_days": 40.0},
    "F2": {"days": 15.0},
    "F3": {"days": 5.0},
    "F4": {"days": 21.0, "hero_rates": (1, 4)},
    "F5": {"days": 3.0},
    "F6": {"days": 10.0, "coverages": (0.0, 0.5, 1.0)},
    "F7": {"widths": (4, 16)},
    "F8": {"days": 5.0, "width": 60},
    "F9": {"days": 15.0},
    "A1": {"days": 5.0},
    "A2": {"days": 6.0},
    "A3": {"mtbfs_hours": (500.0, 4000.0)},
    "A4": {"days": 6.0, "mtbf_days": (2.0, 0.75)},
    "A5": {"days": 4.0, "regimes": ("hostile",)},
    "R1": {"days": 10.0, "seeds": (1, 2, 3)},
}

_ORDER = [
    "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
    "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
    "A1", "A2", "A3", "A4", "A5", "R1",
]


def generate_report(
    runner,
    out: TextIO = sys.stdout,
    fast: bool = False,
    only: Optional[list[str]] = None,
) -> list[ExperimentOutput]:
    """Run experiments (all, or ``only``) on ``runner``; write them to ``out``.

    ``runner`` is a :class:`repro.runner.ParallelRunner`: experiment tasks
    fan out across its workers, and the report is still assembled in the
    fixed display order from partials merged in task-index order, so its
    bytes do not depend on the worker count.
    """
    wanted = [e.upper() for e in only] if only else list(_ORDER)
    missing = [e for e in wanted if e not in registry]
    if missing:
        raise KeyError(f"unknown experiments: {missing}")
    # Anything registered but absent from the display order runs last.
    wanted += [e for e in sorted(registry) if e not in wanted and not only]

    outputs = runner.run_many(
        [
            (experiment_id, FAST_KNOBS.get(experiment_id, {}) if fast else {})
            for experiment_id in wanted
        ]
    )
    for output in outputs:
        out.write(f"{output}\n\n")
    out.flush()
    return outputs

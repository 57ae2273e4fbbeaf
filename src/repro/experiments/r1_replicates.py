"""R1 — Seed sensitivity of the headline table.

Every other experiment reports one seed; R1 re-measures T1's instrumented
user counts across independent seeds and reports the replicate spread, so
EXPERIMENTS.md can state which digits of the headline table are stable.

Shape expectation: the per-modality counts vary by at most a few users
across seeds (activity, not population, is the random part — the population
counts themselves are deterministic at fixed scale), and the dominance
ordering BATCH > EXPLORATORY > GATEWAY > ENSEMBLE > VIZ >= COUPLED holds in
every replicate.

R1 is the blueprint replicate sweep: each seed is an independent simulation,
declared as one :class:`ExperimentTask` so the parallel runner can fan the
replicates out across worker processes; ``run_experiment("R1")`` runs the
same plan/execute/merge path serially, keeping the two execution modes
byte-identical.
"""

from __future__ import annotations

from repro.analysis import describe
from repro.core.modalities import MODALITY_ORDER
from repro.core.report import ascii_table
from repro.experiments.base import (
    ExperimentOutput,
    ExperimentTask,
    reads_campaign,
    register_tasks,
)
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["plan", "execute", "merge"]

_DAYS = 45.0
_SEEDS = (1, 2, 3, 4, 5)
_POPULATION_SCALE = 0.05


def plan(
    days: float = _DAYS,
    seeds: tuple[int, ...] = _SEEDS,
    population_scale: float = _POPULATION_SCALE,
) -> list[ExperimentTask]:
    return [
        ExperimentTask(
            experiment_id="R1",
            index=index,
            params={
                "days": days,
                "seed": int(seed),
                "population_scale": population_scale,
            },
            seed=int(seed),
        )
        for index, seed in enumerate(seeds)
    ]


@reads_campaign("R1")
def execute(result: CampaignArtifact) -> dict:
    """One replicate: count users on the campaign at one seed."""
    counts = result.classification.users_by_modality()
    values = [counts[m] for m in MODALITY_ORDER]
    return {
        "counts": {m.value: counts[m] for m in MODALITY_ORDER},
        "ordering_ok": all(a >= b for a, b in zip(values, values[1:])),
    }


def merge(
    partials: list[dict],
    days: float = _DAYS,
    seeds: tuple[int, ...] = _SEEDS,
    population_scale: float = _POPULATION_SCALE,
) -> ExperimentOutput:
    replicates: dict[str, list[int]] = {m.value: [] for m in MODALITY_ORDER}
    orderings_ok = 0
    for partial in partials:
        orderings_ok += bool(partial["ordering_ok"])
        for modality in MODALITY_ORDER:
            replicates[modality.value].append(partial["counts"][modality.value])

    rows = []
    data = {}
    for modality in MODALITY_ORDER:
        stats = describe(replicates[modality.value])
        rows.append(
            [
                modality.value,
                f"{stats.mean:.1f}",
                f"{stats.minimum:.0f}-{stats.maximum:.0f}",
                f"{stats.std:.2f}",
            ]
        )
        data[modality.value] = {
            "mean": stats.mean,
            "min": stats.minimum,
            "max": stats.maximum,
            "std": stats.std,
            "values": replicates[modality.value],
        }
    text = ascii_table(
        ["modality", "mean users", "range", "std"],
        rows,
        title=(
            f"R1 — Measured users per modality across seeds {list(seeds)} "
            f"({days:g} days; dominance ordering held in "
            f"{orderings_ok}/{len(seeds)} replicates)"
        ),
    )
    data["orderings_ok"] = orderings_ok
    data["n_seeds"] = len(seeds)
    return ExperimentOutput(
        experiment_id="R1",
        title="Seed sensitivity of the headline user counts",
        text=text,
        data=data,
    )


register_tasks("R1", plan=plan, execute=execute, merge=merge)

"""T1 — Users per modality: ground truth vs measured (the headline table).

Shape expectation (DESIGN.md §3): BATCH > EXPLORATORY > GATEWAY > ENSEMBLE ≫
VIZ > COUPLED in the truth and in the instrumented measurement; the
uninstrumented column collapses GATEWAY to the number of community accounts.
"""

from __future__ import annotations

from repro.core.modalities import MODALITY_ORDER
from repro.core.report import modality_table
from repro.experiments.base import (
    ExperimentOutput,
    campaign,
    campaign_key,
    register,
    register_campaigns,
)

__all__ = ["run"]


@register("T1")
def run(days: float = 90.0, seed: int = 1, **campaign_knobs) -> ExperimentOutput:
    result = campaign(days=days, seed=seed, **campaign_knobs)
    records = result.records

    truth = result.active_truth_by_identity()
    true_counts = {m: 0 for m in MODALITY_ORDER}
    for modality in truth.values():
        true_counts[modality] += 1

    instrumented = result.classification.users_by_modality()
    uninstrumented = result.heuristic_classification.users_by_modality()

    text = modality_table(
        {
            "true users": true_counts,
            "measured (instrumented)": instrumented,
            "measured (no attributes)": uninstrumented,
        },
        title=(
            f"T1 — Users per modality over {days:g} days "
            f"(seed {seed}; {len(truth)} active users, {len(records)} jobs)"
        ),
    )
    return ExperimentOutput(
        experiment_id="T1",
        title="Users per modality: ground truth vs measured",
        text=text,
        data={
            "true": {m.value: true_counts[m] for m in MODALITY_ORDER},
            "instrumented": {m.value: instrumented[m] for m in MODALITY_ORDER},
            "uninstrumented": {
                m.value: uninstrumented[m] for m in MODALITY_ORDER
            },
            "n_records": len(records),
        },
    )


def _campaigns(params: dict) -> list:
    """The one campaign T1's (single) task reads — see ``run``'s knobs."""
    knobs = dict(params)
    return [
        campaign_key(
            days=knobs.pop("days", 90.0), seed=knobs.pop("seed", 1), **knobs
        )
    ]


register_campaigns("T1", _campaigns)

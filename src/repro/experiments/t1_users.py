"""T1 — Users per modality: ground truth vs measured (the headline table).

Shape expectation (DESIGN.md §3): BATCH > EXPLORATORY > GATEWAY > ENSEMBLE ≫
VIZ > COUPLED in the truth and in the instrumented measurement; the
uninstrumented column collapses GATEWAY to the number of community accounts.
"""

from __future__ import annotations

from repro.core.modalities import MODALITY_ORDER
from repro.core.report import modality_table
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]


@register("T1")
@reads_campaign("T1")
def run(result: CampaignArtifact) -> ExperimentOutput:
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
            f"T1 — Users per modality over {result.key.days:g} days "
            f"(seed {result.key.seed}; {len(truth)} active users, {len(records)} jobs)"
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

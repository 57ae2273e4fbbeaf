"""T8 — Access-path mix by modality (the taxonomy's "access" dimension).

The modality taxonomy is multi-dimensional: *what* users do and *how they
reach the machines* are separate questions.  T8 crosses them: for each
(true-)modality, the fraction of jobs arriving via login CLI, GRAM
middleware, and gateway portals.

Shape expectations: GATEWAY jobs arrive 100% through portals by definition;
every CLI modality shows the configured GRAM fraction (~15%); the engine-
driven paths (workflow-engine ensembles, co-allocated parts) have no
submission interface stamped — they appear as "engine/other", which is
itself a measurable fact about middleware-mediated usage.
"""

from __future__ import annotations

from repro.core.modalities import MODALITY_ORDER, Modality
from repro.core.report import ascii_table
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.infra.job import AttributeKeys
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]

_PATHS = ("login", "gram", "gateway", "engine/other")


@register("T8")
@reads_campaign("T8")
def run(result: CampaignArtifact) -> ExperimentOutput:
    records = result.records
    labels = result.classification.job_labels
    counts: dict[Modality, dict[str, int]] = {
        m: {p: 0 for p in _PATHS} for m in MODALITY_ORDER
    }
    for record in records:
        interface = record.attributes.get(AttributeKeys.SUBMIT_INTERFACE)
        path = interface if interface in _PATHS else "engine/other"
        counts[labels[record.job_id]][path] += 1

    rows = []
    data = {}
    for modality in MODALITY_ORDER:
        row_counts = counts[modality]
        total = sum(row_counts.values())
        row = [modality.value, total]
        for path in _PATHS:
            share = row_counts[path] / total if total else 0.0
            row.append(f"{100 * share:.1f}%")
        rows.append(row)
        data[modality.value] = {
            "total": total,
            **{p: row_counts[p] for p in _PATHS},
        }
    text = ascii_table(
        ["modality", "jobs", *(f"via {p}" for p in _PATHS)],
        rows,
        title=f"T8 — Access-path mix by modality over {result.key.days:g} days",
    )
    return ExperimentOutput(
        experiment_id="T8",
        title="Access-path mix by modality",
        text=text,
        data=data,
    )

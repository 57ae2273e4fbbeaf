"""T6 — Usage by field of science x modality.

The other axis every TeraGrid usage report sliced by: the charged
allocation's discipline.  Shape expectations: the field mix follows the
community weights (molecular biosciences / physics / astronomy lead); each
gateway's usage lands entirely in its domain field; and NU shares track the
batch-heavy fields rather than the user-heavy ones.
"""

from __future__ import annotations

from repro.core.modalities import Modality
from repro.core.report import ascii_table
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]


@register("T6")
@reads_campaign("T6")
def run(result: CampaignArtifact) -> ExperimentOutput:
    records = result.records
    labels = result.classification.job_labels
    by_field: dict[str, dict] = {}
    for record in records:
        name = record.field_of_science or "(unassigned)"
        entry = by_field.get(name)
        if entry is None:
            entry = by_field[name] = {
                "jobs": 0, "nu": 0.0, "users": set(), "gateway_nu": 0.0,
            }
        entry["jobs"] += 1
        entry["nu"] += record.charged_nu
        entry["users"].add(record.user)
        if labels[record.job_id] is Modality.GATEWAY:
            entry["gateway_nu"] += record.charged_nu

    total_nu = sum(e["nu"] for e in by_field.values())
    rows = []
    data = {}
    for name in sorted(by_field, key=lambda n: -by_field[n]["nu"]):
        entry = by_field[name]
        rows.append(
            [
                name,
                len(entry["users"]),
                entry["jobs"],
                f"{entry['nu']:,.0f}",
                f"{100 * entry['nu'] / total_nu:.1f}%" if total_nu else "-",
                f"{100 * entry['gateway_nu'] / entry['nu']:.1f}%"
                if entry["nu"]
                else "-",
            ]
        )
        data[name] = {
            "accounts_users": len(entry["users"]),
            "jobs": entry["jobs"],
            "nu": entry["nu"],
            "gateway_nu": entry["gateway_nu"],
        }
    text = ascii_table(
        ["field of science", "account users", "jobs", "NUs", "NU share",
         "gateway NU share"],
        rows,
        title=f"T6 — Usage by field of science over {result.key.days:g} days",
    )
    return ExperimentOutput(
        experiment_id="T6",
        title="Usage by field of science",
        text=text,
        data=data,
    )

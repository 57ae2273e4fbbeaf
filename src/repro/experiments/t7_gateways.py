"""T7 — Per-gateway community report.

The per-gateway numbers TeraGrid wanted to quote (nanoHUB alone reported
120,000+ users served): end users identified, jobs, NUs, and the observed
attribute-tagging coverage — all derivable from accounting once the
instrumentation is in place.

Shape expectations: gateway popularity is heavy-tailed (the first gateway
serves about half the end users); per-gateway NUs are tiny next to the
federation total; coverage matches the configured tagging probability.
"""

from __future__ import annotations

from repro.core.records import resolve_identity
from repro.core.report import ascii_table
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.infra.job import AttributeKeys
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]


@register("T7")
@reads_campaign("T7")
def run(result: CampaignArtifact) -> ExperimentOutput:
    records = result.records

    per_gateway: dict[str, dict] = {}
    for record in records:
        gateway = record.attributes.get(AttributeKeys.GATEWAY_NAME)
        if gateway is None:
            continue
        entry = per_gateway.setdefault(
            gateway,
            {"jobs": 0, "nu": 0.0, "tagged": 0, "end_users": set()},
        )
        entry["jobs"] += 1
        entry["nu"] += record.charged_nu
        if AttributeKeys.GATEWAY_USER in record.attributes:
            entry["tagged"] += 1
            entry["end_users"].add(resolve_identity(record))

    total_nu = result.total_nu
    rows = []
    data = {}
    for gateway in sorted(
        per_gateway, key=lambda g: -len(per_gateway[g]["end_users"])
    ):
        entry = per_gateway[gateway]
        coverage = entry["tagged"] / entry["jobs"] if entry["jobs"] else 0.0
        rows.append(
            [
                gateway,
                len(entry["end_users"]),
                entry["jobs"],
                f"{entry['nu']:,.0f}",
                f"{100 * entry['nu'] / total_nu:.2f}%" if total_nu else "-",
                f"{100 * coverage:.0f}%",
            ]
        )
        data[gateway] = {
            "end_users": len(entry["end_users"]),
            "jobs": entry["jobs"],
            "nu": entry["nu"],
            "coverage": coverage,
        }
    text = ascii_table(
        ["gateway", "end users identified", "jobs", "NUs", "share of all NUs",
         "tagging coverage"],
        rows,
        title=f"T7 — Science-gateway community report over {result.key.days:g} days",
    )
    return ExperimentOutput(
        experiment_id="T7",
        title="Per-gateway community report",
        text=text,
        data=data,
    )

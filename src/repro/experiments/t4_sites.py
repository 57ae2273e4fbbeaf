"""T4 — Per-site modality breakdown (NU share per resource x modality).

Shape expectation: every site is BATCH-dominated; gateway and exploratory
usage concentrate NU-wise on the smaller, cheaper machines in relative
terms; the largest machines host the coupled runs.
"""

from __future__ import annotations

from repro.core.modalities import MODALITY_ORDER
from repro.core.report import ascii_table
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]


@register("T4")
@reads_campaign("T4")
def run(result: CampaignArtifact) -> ExperimentOutput:
    metrics = result.modality_metrics

    sites = sorted(metrics.by_site_nu)
    headers = ["site", "total NUs", *[m.value for m in MODALITY_ORDER]]
    rows = []
    for site in sites:
        split = metrics.by_site_nu[site]
        total = sum(split.values())
        row = [site, f"{total:,.0f}"]
        for modality in MODALITY_ORDER:
            share = split.get(modality, 0.0) / total if total else 0.0
            row.append(f"{100 * share:.1f}%")
        rows.append(row)
    text = ascii_table(
        headers,
        rows,
        title=f"T4 — NU share per site x modality over {result.key.days:g} days",
    )
    return ExperimentOutput(
        experiment_id="T4",
        title="Per-site modality breakdown",
        text=text,
        data={
            site: {
                m.value: metrics.by_site_nu[site].get(m, 0.0)
                for m in MODALITY_ORDER
            }
            for site in sites
        },
    )

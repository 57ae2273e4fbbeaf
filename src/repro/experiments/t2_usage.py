"""T2 — Jobs and NUs charged per modality (usage vs head-count inversion).

Shape expectation: BATCH dominates NUs (>50%) while EXPLORATORY and GATEWAY
dominate job counts; GATEWAY has the highest jobs-per-user ratio among the
job-heavy modalities relative to its NU share.
"""

from __future__ import annotations

from repro.core.modalities import MODALITY_ORDER
from repro.core.report import modality_table
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]


@register("T2")
@reads_campaign("T2")
def run(result: CampaignArtifact) -> ExperimentOutput:
    metrics = result.modality_metrics

    nu_share = {m: f"{100 * metrics.nu_share(m):.1f}%" for m in MODALITY_ORDER}
    jobs_per_user = {
        m: f"{metrics.jobs_per_user(m):.1f}" for m in MODALITY_ORDER
    }
    nu_rounded = {m: f"{metrics.nu[m]:,.0f}" for m in MODALITY_ORDER}
    text = modality_table(
        {
            "users": metrics.users,
            "jobs": metrics.jobs,
            "jobs/user": jobs_per_user,
            "NUs charged": nu_rounded,
            "NU share": nu_share,
        },
        title=(
            f"T2 — Usage by modality over {result.key.days:g} days "
            f"(total {metrics.total_nu:,.0f} NUs, {metrics.total_jobs} jobs; "
            f"usage Gini {metrics.usage_gini:.2f})"
        ),
    )
    return ExperimentOutput(
        experiment_id="T2",
        title="Jobs and NUs charged per modality",
        text=text,
        data={
            "jobs": {m.value: metrics.jobs[m] for m in MODALITY_ORDER},
            "nu": {m.value: metrics.nu[m] for m in MODALITY_ORDER},
            "nu_share": {m.value: metrics.nu_share(m) for m in MODALITY_ORDER},
            "jobs_per_user": {
                m.value: metrics.jobs_per_user(m) for m in MODALITY_ORDER
            },
            "gini": metrics.usage_gini,
        },
    )

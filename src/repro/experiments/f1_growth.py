"""F1 — Modality user counts by quarter (gateway adoption growth).

Shape expectation: with gateway end users adopting over the year, the
GATEWAY series grows quarter over quarter while BATCH/EXPLORATORY stay flat;
by the final quarter GATEWAY rivals EXPLORATORY.
"""

from __future__ import annotations

from repro.core import quarterly_user_counts
from repro.core.modalities import MODALITY_ORDER
from repro.core.report import ascii_table, series_block
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.infra.units import QUARTER
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]


@register("F1")
@reads_campaign(
    "F1",
    days=364.0,
    population_scale=0.03,
    gateway_adoption_ramp_days=270.0,
)
def run(result: CampaignArtifact) -> ExperimentOutput:
    key = result.key
    series = quarterly_user_counts(result.records, bucket=QUARTER)
    quarters = sorted(series)

    headers = ["quarter", *[m.value for m in MODALITY_ORDER]]
    rows = []
    for quarter in quarters:
        rows.append(
            [f"Q{quarter + 1}", *[series[quarter][m] for m in MODALITY_ORDER]]
        )
    table = ascii_table(
        headers,
        rows,
        title=(
            f"F1 — Active users per modality by quarter "
            f"({key.days:g} days, gateway adoption ramp "
            f"{key.gateway_adoption_ramp_days:g} days)"
        ),
    )
    figure = series_block(
        "F1 series (x=quarter, y=users)",
        {
            m.value: [(q + 1, series[q][m]) for q in quarters]
            for m in MODALITY_ORDER
        },
    )
    return ExperimentOutput(
        experiment_id="F1",
        title="Modality user counts by quarter",
        text=table + "\n\n" + figure,
        data={
            m.value: [series[q][m] for q in quarters] for m in MODALITY_ORDER
        },
    )


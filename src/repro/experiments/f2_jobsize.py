"""F2 — Job-size (cores) distribution per modality (CCDF).

Shape expectation: GATEWAY/EXPLORATORY curves sit far left (tiny jobs),
BATCH in the middle with a heavy tail, COUPLED far right; the BATCH and
COUPLED CCDFs cross everything else at large sizes.
"""

from __future__ import annotations

import numpy as np

from repro.core.modalities import MODALITY_ORDER
from repro.core.report import ascii_table, series_block
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]

_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@register("F2")
@reads_campaign("F2")
def run(result: CampaignArtifact) -> ExperimentOutput:
    metrics = result.modality_metrics

    ccdf: dict[str, list[tuple[float, float]]] = {}
    percentiles = {}
    for modality in MODALITY_ORDER:
        sizes = np.asarray(metrics.job_sizes[modality], dtype=float)
        if sizes.size == 0:
            continue
        ccdf[modality.value] = [
            (float(s), float(np.mean(sizes >= s))) for s in _SIZES
        ]
        percentiles[modality] = (
            f"{np.percentile(sizes, 50):.0f}/"
            f"{np.percentile(sizes, 90):.0f}/"
            f"{sizes.max():.0f}"
        )

    table = ascii_table(
        ["modality", "cores p50/p90/max"],
        [[m.value, percentiles[m]] for m in MODALITY_ORDER if m in percentiles],
        title=f"F2 — Job sizes per modality over {result.key.days:g} days",
    )
    figure = series_block("F2 series (x=cores, y=P[size >= x])", ccdf)
    return ExperimentOutput(
        experiment_id="F2",
        title="Job-size CCDF per modality",
        text=table + "\n\n" + figure,
        data={"ccdf": ccdf},
    )

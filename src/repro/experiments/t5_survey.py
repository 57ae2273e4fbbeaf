"""T5 — Survey ("why") vs accounting ("what"): modality shares three ways.

Shape expectation: the survey massively under-represents GATEWAY (end users
are unreachable) and over-represents BATCH (prestige self-reporting and the
exploratory->batch confusion); the accounting measurement tracks truth.
"""

from __future__ import annotations

import numpy as np

from repro.core import SurveyInstrument
from repro.core.modalities import MODALITY_ORDER
from repro.core.report import modality_table
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]


@register("T5")
@reads_campaign("T5")
def run(result: CampaignArtifact, survey_seed: int = 42) -> ExperimentOutput:
    truth = result.active_truth_by_identity()
    n_active = len(truth)

    true_counts = {m: 0 for m in MODALITY_ORDER}
    for modality in truth.values():
        true_counts[modality] += 1
    true_shares = {m: true_counts[m] / n_active for m in MODALITY_ORDER}

    measured = result.classification.users_by_modality()
    n_measured = sum(measured.values())
    measured_shares = {
        m: (measured[m] / n_measured if n_measured else 0.0)
        for m in MODALITY_ORDER
    }

    survey = SurveyInstrument(np.random.default_rng(survey_seed))
    outcome = survey.run(truth)
    survey_shares = outcome.reported_shares()

    def pct(shares):
        return {m: f"{100 * shares[m]:.1f}%" for m in MODALITY_ORDER}

    text = modality_table(
        {
            "true share": pct(true_shares),
            "accounting share": pct(measured_shares),
            "survey share": pct(survey_shares),
        },
        title=(
            f"T5 — Modality shares: truth vs accounting vs survey "
            f"({n_active} active users; survey response rate "
            f"{100 * outcome.response_rate:.0f}%)"
        ),
    )
    return ExperimentOutput(
        experiment_id="T5",
        title="Survey self-reports vs accounting measurement",
        text=text,
        data={
            "true_shares": {m.value: true_shares[m] for m in MODALITY_ORDER},
            "measured_shares": {
                m.value: measured_shares[m] for m in MODALITY_ORDER
            },
            "survey_shares": {
                m.value: survey_shares[m] for m in MODALITY_ORDER
            },
            "response_rate": outcome.response_rate,
        },
    )

"""T3 — Measurement accuracy: instrumented vs pre-instrumentation classifier.

Shape expectation: near-perfect instrumented F1 everywhere; heuristic F1
remains decent for BATCH/EXPLORATORY/VIZ (structural signals survive) but
the *user counts* diverge wildly for GATEWAY (collapse to community
accounts), which the paired user-count-error columns make explicit.
"""

from __future__ import annotations

from repro.core import score_classification
from repro.core.evaluation import user_count_errors
from repro.core.modalities import MODALITY_ORDER
from repro.core.report import modality_table
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]


@register("T3")
@reads_campaign("T3")
def run(result: CampaignArtifact) -> ExperimentOutput:
    truth_jobs = result.truth_by_job()

    instrumented_cls = result.classification
    heuristic_cls = result.heuristic_classification
    instrumented = score_classification(instrumented_cls, truth_jobs)
    heuristic = score_classification(heuristic_cls, truth_jobs)

    truth_users = result.active_truth_by_identity()
    true_counts = {m: 0 for m in MODALITY_ORDER}
    for modality in truth_users.values():
        true_counts[modality] += 1
    err_instr = user_count_errors(
        instrumented_cls.users_by_modality(), true_counts
    )
    err_heur = user_count_errors(heuristic_cls.users_by_modality(), true_counts)

    text = modality_table(
        {
            "F1 (instrumented)": {
                m: f"{instrumented.f1(m):.3f}" for m in MODALITY_ORDER
            },
            "F1 (no attributes)": {
                m: f"{heuristic.f1(m):.3f}" for m in MODALITY_ORDER
            },
            "user-count err (instr.)": {
                m: f"{100 * err_instr[m]:+.0f}%" for m in MODALITY_ORDER
            },
            "user-count err (no attr.)": {
                m: f"{100 * err_heur[m]:+.0f}%" for m in MODALITY_ORDER
            },
        },
        title=(
            "T3 — Measurement accuracy "
            f"(job accuracy: instrumented {instrumented.accuracy:.3f}, "
            f"no-attributes {heuristic.accuracy:.3f}; {instrumented.n_jobs} jobs)"
        ),
    )
    return ExperimentOutput(
        experiment_id="T3",
        title="Classifier accuracy with and without instrumentation",
        text=text,
        data={
            "instrumented_accuracy": instrumented.accuracy,
            "heuristic_accuracy": heuristic.accuracy,
            "instrumented_f1": {
                m.value: instrumented.f1(m) for m in MODALITY_ORDER
            },
            "heuristic_f1": {m.value: heuristic.f1(m) for m in MODALITY_ORDER},
            "instrumented_user_error": {
                m.value: err_instr[m] for m in MODALITY_ORDER
            },
            "heuristic_user_error": {
                m.value: err_heur[m] for m in MODALITY_ORDER
            },
        },
    )

"""F6 — Gateway attribute coverage ablation (the paper's motivating gap).

Shape expectation: measured gateway users rise monotonically (and roughly
linearly at the per-user job counts simulated here it saturates quickly —
a user is counted once *any* of their jobs is tagged) from the number of
community accounts at coverage 0 to the true count at coverage 1.

Each coverage point is an independent campaign, declared as one task so the
sweep parallelizes across worker processes.
"""

from __future__ import annotations

from repro.core.modalities import Modality
from repro.core.report import ascii_table, series_block
from repro.experiments.base import (
    ExperimentOutput,
    ExperimentTask,
    reads_campaign,
    register_tasks,
)
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["plan", "execute", "merge"]

_DAYS = 45.0
_SEED = 1
_COVERAGES = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)


def plan(
    days: float = _DAYS,
    seed: int = _SEED,
    coverages: tuple[float, ...] = _COVERAGES,
) -> list[ExperimentTask]:
    return [
        ExperimentTask(
            experiment_id="F6",
            index=index,
            params={
                "days": days,
                "seed": int(seed),
                "gateway_tagging_coverage": float(coverage),
            },
            seed=int(seed),
        )
        for index, coverage in enumerate(coverages)
    ]


@reads_campaign("F6")
def execute(result: CampaignArtifact) -> dict:
    """One sweep point: campaign at one tagging coverage, count recovery."""
    truth = result.active_truth_by_identity()
    true_gateway = sum(1 for m in truth.values() if m is Modality.GATEWAY)
    classification = result.classification
    # Gateway-primary identities split into *identified end users*
    # (resolved through a gateway-user attribute -> "<gateway>:<user>")
    # and *community-account remainders* (the untagged residue an
    # operations report would list as "unattributed gateway usage").
    gateway_identities = [
        identity
        for identity, modality in classification.identity_primary.items()
        if modality is Modality.GATEWAY
    ]
    identified = sum(1 for i in gateway_identities if ":" in i)
    return {
        "identified": identified,
        "remainder_accounts": len(gateway_identities) - identified,
        "true": true_gateway,
    }


def merge(
    partials: list[dict],
    days: float = _DAYS,
    seed: int = _SEED,
    coverages: tuple[float, ...] = _COVERAGES,
) -> ExperimentOutput:
    rows = []
    series = []
    data = {}
    for coverage, partial in zip(coverages, partials):
        identified = partial["identified"]
        remainder = partial["remainder_accounts"]
        true_gateway = partial["true"]
        rows.append(
            [
                f"{coverage:.0%}",
                identified,
                remainder,
                true_gateway,
                f"{100 * identified / true_gateway:.0f}%"
                if true_gateway
                else "-",
            ]
        )
        series.append((coverage, float(identified)))
        data[coverage] = partial
    table = ascii_table(
        [
            "tagging coverage",
            "identified end users",
            "community-acct remainders",
            "true (active)",
            "recovered",
        ],
        rows,
        title=(
            f"F6 — Identified gateway users vs attribute coverage "
            f"({days:g} days)"
        ),
    )
    figure = series_block(
        "F6 series (x=coverage, y=identified gateway end users)",
        {"identified": series},
    )
    return ExperimentOutput(
        experiment_id="F6",
        title="Gateway attribute coverage ablation",
        text=table + "\n\n" + figure,
        data=data,
    )


register_tasks("F6", plan=plan, execute=execute, merge=merge)

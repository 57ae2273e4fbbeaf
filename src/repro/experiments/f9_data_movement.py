"""F9 — Wide-area data movement by modality.

The modality taxonomy's fourth dimension is the data pattern, and the
TeraGrid ran a dedicated WAN (plus Lustre-WAN/Data Capacitor experiments)
largely because of it.  This figure reports the transfer count, volume and
achieved rates attributable to each modality over the canonical campaign.

Shape expectations: BATCH dominates volume (many sessions, tens-of-GB
inputs, and the largest roaming population); ENSEMBLE contributes the most
*transfers* per unit of volume (workflow stage-outs are numerous but small);
COUPLED moves data rarely but in every run (inputs to all parts); GATEWAY
and VIZ move essentially nothing over the WAN.
"""

from __future__ import annotations

import numpy as np

from repro.core.modalities import MODALITY_ORDER
from repro.core.report import ascii_table
from repro.experiments.base import ExperimentOutput, reads_campaign, register
from repro.workloads.synthetic import CampaignArtifact

__all__ = ["run"]

TB = 1e12


@register("F9")
@reads_campaign("F9")
def run(result: CampaignArtifact) -> ExperimentOutput:
    # Same-site stage-ins are local filesystem copies, not WAN movement.
    transfers = [t for t in result.transfers if t.src != t.dst]

    by_tag: dict[str, list] = {}
    for transfer in transfers:
        by_tag.setdefault(transfer.tag or "untagged", []).append(transfer)

    rows = []
    data = {}
    for modality in MODALITY_ORDER:
        group = by_tag.get(modality.value, [])
        volume = sum(t.size_bytes for t in group)
        durations = [t.duration for t in group if t.duration]
        rates = [
            t.size_bytes / t.duration / 1e6
            for t in group
            if t.duration and t.duration > 0
        ]
        rows.append(
            [
                modality.value,
                len(group),
                f"{volume / TB:.2f} TB",
                f"{np.median(rates):.0f} MB/s" if rates else "-",
            ]
        )
        data[modality.value] = {
            "transfers": len(group),
            "bytes": volume,
            "median_rate_mbs": float(np.median(rates)) if rates else 0.0,
        }
    total_volume = sum(t.size_bytes for t in transfers)
    text = ascii_table(
        ["modality", "WAN transfers", "volume", "median rate"],
        rows,
        title=(
            f"F9 — Wide-area data movement by modality over {result.key.days:g} days "
            f"({len(transfers)} transfers, {total_volume / TB:.2f} TB total)"
        ),
    )
    data["total_bytes"] = total_volume
    data["total_transfers"] = len(transfers)
    return ExperimentOutput(
        experiment_id="F9",
        title="Data movement by modality",
        text=text,
        data=data,
    )

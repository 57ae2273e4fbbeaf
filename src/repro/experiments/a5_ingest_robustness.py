"""A5 (ablation) — Measurement robustness under a lossy accounting exchange.

Sweeps the AMIE packet-fault climate (clean / lossy / hostile) against the
exchange's recovery discipline (fire-and-forget / ack-timeout retransmission
/ retransmission + end-of-run reconciliation audit) and measures what the
damage does to the *paper's numbers*: how many usage records survive to the
central database, how far total recorded NU drifts from the allocation
ledger's ground truth, how the modality mix skews, and whether the
attribute classifier's job accuracy suffers.

Every cell is one independent federation campaign; the fault schedule is a
pure function of the scenario seed, so the sweep is byte-identical at any
worker count and under resume/chaos.

Shape expectation (written before the first run):

* Record loss is *not* modality-neutral: all sites share one fault climate,
  but packets are batches, so the modalities concentrated in high-volume
  feeds lose disproportionately when a batch vanishes — the measured mix
  drifts even though per-record loss is unbiased.
* Classifier accuracy on the *surviving* records stays high (attributes
  travel inside the record), so the headline damage is census
  undercounting, not misclassification — measurement loses jobs, not
  labels.
* Retransmission recovers everything except packets still in flight when
  the run ends; the reconciliation audit closes that gap and drives
  unrecovered records to exactly zero, restoring NU conservation to the
  clean-cell identity.
"""

from __future__ import annotations

from repro.core.classifier import AttributeClassifier
from repro.core.evaluation import score_classification
from repro.core.modalities import MODALITY_ORDER
from repro.core.report import ascii_table, counters_footer
from repro.experiments.base import (
    ExperimentOutput,
    ExperimentTask,
    register_tasks,
)
from repro.infra.amie import IngestRecoveryPolicy, PacketFaultRegime
from repro.infra.units import MINUTE
from repro.users.population import PopulationSpec
from repro.workloads.synthetic import ScenarioConfig, run_scenario

__all__ = ["plan", "merge"]

_SEED = 53
_DAYS = 15.0
_REGIMES = ("lossy", "hostile")
_RECOVERIES = ("none", "retry", "audit")

#: The fault climates, from a flaky WAN to an actively hostile link.
FAULT_REGIMES: dict[str, PacketFaultRegime] = {
    "lossy": PacketFaultRegime(
        drop_rate=0.10,
        duplicate_rate=0.05,
        delay_mean=15 * MINUTE,
    ),
    "hostile": PacketFaultRegime(
        drop_rate=0.30,
        duplicate_rate=0.15,
        reorder_rate=0.20,
        corrupt_rate=0.15,
        delay_mean=45 * MINUTE,
    ),
}

#: The recovery ladder the sweep climbs.
RECOVERY_POLICIES: dict[str, IngestRecoveryPolicy] = {
    "none": IngestRecoveryPolicy(retransmit=False, reconcile=False),
    "retry": IngestRecoveryPolicy(retransmit=True, reconcile=False),
    "audit": IngestRecoveryPolicy(retransmit=True, reconcile=True),
}


def _cells(regimes: tuple[str, ...], recoveries: tuple[str, ...]):
    """Cell grid: the clean baseline, then fault regime x recovery level."""
    cells: list[tuple[str | None, str]] = [(None, "none")]
    for regime in regimes:
        for recovery in recoveries:
            cells.append((regime, recovery))
    return cells


def _cell_label(regime: str | None, recovery: str) -> str:
    if regime is None:
        return "clean"
    return f"{regime} / {recovery}"


def _nu_by_modality_truth(result) -> dict[str, float]:
    """Ground-truth NU per modality, straight from the terminal jobs."""
    shares = {m.value: 0.0 for m in MODALITY_ORDER}
    for provider in result.providers:
        for job in provider.scheduler.completed:
            if job.true_modality in shares:
                shares[job.true_modality] += job.charged_nu or 0.0
    return shares


def _nu_by_modality_measured(result, classification) -> dict[str, float]:
    """NU per modality as the central database + classifier see it."""
    shares = {m.value: 0.0 for m in MODALITY_ORDER}
    for record in result.records:
        label = classification.job_labels.get(record.job_id)
        if label is not None and label.value in shares:
            shares[label.value] += record.charged_nu
    return shares


def _tv_distance(truth: dict[str, float], measured: dict[str, float]) -> float:
    """Total-variation distance between two NU-share distributions."""
    t_total = sum(truth.values())
    m_total = sum(measured.values())
    if t_total <= 0 or m_total <= 0:
        return 0.0
    return 0.5 * sum(
        abs(truth[key] / t_total - measured.get(key, 0.0) / m_total)
        for key in truth
    )


def _run_cell(regime: str | None, recovery: str, days: float, seed: int) -> dict:
    faults = None if regime is None else FAULT_REGIMES[regime]
    policy = RECOVERY_POLICIES[recovery] if regime is not None else None
    result = run_scenario(
        ScenarioConfig(
            scale="small",
            days=days,
            seed=seed,
            population=PopulationSpec(scale=0.05),
            packet_faults=faults,
            ingest_recovery=policy,
        )
    )

    published = sum(p.records_emitted for p in result.providers)
    delivered = len(result.central)
    charged = result.ledger.total_charged()
    recorded = result.central.total_nu()
    nu_err = abs(charged - recorded) / charged if charged > 0 else 0.0

    classification = AttributeClassifier().classify(result.records)
    confusion = score_classification(classification, result.truth_by_job())
    drift = _tv_distance(
        _nu_by_modality_truth(result),
        _nu_by_modality_measured(result, classification),
    )

    endpoint = result.amie_endpoint
    reconciliation = result.reconciliation
    transports = (
        [p.feed.transport for p in result.providers] if endpoint else []
    )
    return {
        "label": _cell_label(regime, recovery),
        "regime": regime,
        "recovery": recovery,
        "published": published,
        "delivered": delivered,
        "charged_nu": charged,
        "recorded_nu": recorded,
        "nu_err": nu_err,
        "accuracy": confusion.accuracy,
        "classified_jobs": confusion.n_jobs,
        "mix_drift": drift,
        "packets_dropped": sum(t.packets_dropped for t in transports),
        "packets_duplicated": sum(t.packets_duplicated for t in transports),
        "packets_corrupted": sum(t.packets_corrupted for t in transports),
        "acks_dropped": sum(t.acks_dropped for t in transports),
        "retransmits": (
            sum(p.feed.retransmits for p in result.providers) if endpoint else 0
        ),
        "quarantined": endpoint.packets_quarantined if endpoint else 0,
        "dup_packets_skipped": endpoint.packets_duplicate if endpoint else 0,
        "dup_records_skipped": endpoint.records_duplicate if endpoint else 0,
        "resent": reconciliation.total_resent if reconciliation else 0,
        "unrecovered": reconciliation.total_unrecovered if reconciliation else 0,
    }


def plan(
    seed: int = _SEED,
    days: float = _DAYS,
    regimes: tuple[str, ...] = _REGIMES,
    recoveries: tuple[str, ...] = _RECOVERIES,
) -> list[ExperimentTask]:
    tasks = []
    for regime, recovery in _cells(tuple(regimes), tuple(recoveries)):
        tasks.append(
            ExperimentTask(
                experiment_id="A5",
                index=len(tasks),
                params={
                    "regime": regime,
                    "recovery": recovery,
                    "days": float(days),
                    "seed": int(seed),
                },
                seed=int(seed),
            )
        )
    return tasks


def merge(
    partials: list[dict],
    seed: int = _SEED,
    days: float = _DAYS,
    regimes: tuple[str, ...] = _REGIMES,
    recoveries: tuple[str, ...] = _RECOVERIES,
) -> ExperimentOutput:
    rows = []
    for cell in partials:
        rows.append(
            [
                cell["label"],
                f"{cell['delivered']}/{cell['published']}",
                f"{100 * cell['delivered'] / cell['published']:.1f}%"
                if cell["published"] > 0
                else "n/a",
                f"{100 * cell['nu_err']:.2f}%",
                f"{cell['accuracy']:.3f}",
                f"{cell['mix_drift']:.3f}",
                f"{cell['unrecovered']}",
            ]
        )
    table_a = ascii_table(
        [
            "cell",
            "records delivered",
            "delivery",
            "NU error",
            "classifier acc",
            "mix drift (TV)",
            "unrecovered",
        ],
        rows,
        title=(
            f"A5a — Measurement robustness vs accounting-link faults "
            f"({days:g}-day federation campaigns)"
        ),
    )

    exchange_rows = []
    for cell in partials[1:]:
        exchange_rows.append(
            [
                cell["label"],
                f"{cell['packets_dropped']}",
                f"{cell['packets_corrupted']}",
                f"{cell['quarantined']}",
                f"{cell['retransmits']}",
                f"{cell['dup_packets_skipped'] + cell['dup_records_skipped']}",
                f"{cell['resent']}",
            ]
        )
    table_b = ascii_table(
        [
            "cell",
            "dropped",
            "corrupted",
            "quarantined",
            "retransmits",
            "dups skipped",
            "audit re-sends",
        ],
        exchange_rows,
        title="A5b — Exchange-level accounting of faults and recoveries",
    )

    footer = counters_footer(
        {
            "packets_dropped": sum(c["packets_dropped"] for c in partials),
            "packets_duplicated": sum(c["packets_duplicated"] for c in partials),
            "packets_corrupted": sum(c["packets_corrupted"] for c in partials),
            "acks_dropped": sum(c["acks_dropped"] for c in partials),
            "quarantined": sum(c["quarantined"] for c in partials),
            "retransmits": sum(c["retransmits"] for c in partials),
            "dup_packets_skipped": sum(
                c["dup_packets_skipped"] for c in partials
            ),
            "dup_records_skipped": sum(
                c["dup_records_skipped"] for c in partials
            ),
            "audit_resent": sum(c["resent"] for c in partials),
            "unrecovered": sum(c["unrecovered"] for c in partials),
        }
    )
    text = "\n\n".join([table_a, table_b, footer])
    return ExperimentOutput(
        experiment_id="A5",
        title="Measurement robustness under a lossy AMIE exchange",
        text=text,
        data={cell["label"]: cell for cell in partials},
    )


register_tasks("A5", plan=plan, execute=_run_cell, merge=merge)

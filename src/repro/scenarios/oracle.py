"""The invariant oracle: global properties every scenario result must satisfy.

The fuzzing harness (and the regression suite pinning the canonical
campaign) judge a run not by matching expected numbers — arbitrary scenarios
have no expected numbers — but by *conservation-style invariants* that hold
for every federation the simulator can legally produce:

* **conservation** — every normalized unit charged against an allocation in
  the ledger shows up exactly once in the central accounting database, and
  nothing is left buffered in a site's AMIE feed;
* **no-double-charge** — one usage record per job, with a charge that never
  exceeds the nominal rate x occupancy for its machine;
* **record well-formedness** — timestamps ordered, occupancy within the
  requested walltime, resources and accounts that actually exist;
* **classifier sanity** — the attribute classifier labels *every* record
  exactly once and its identity totals are internally consistent (classifier
  totals ≡ record totals);
* **bounded lost work** — each unplanned outage kills no more jobs than the
  machine could possibly run, the killed jobs' cores fit the machine, and
  per-site kill counters agree with the injector's event log.

:func:`check_scenario` runs all of them and returns an :class:`OracleReport`;
``report.ok`` is the fuzzing harness's pass/fail signal and
``report.violations`` carry human-readable detail for the replay message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.classifier import AttributeClassifier
from repro.core.modalities import Modality
from repro.infra.units import HOUR

__all__ = ["OracleReport", "Violation", "check_scenario"]

#: Relative tolerance for float accumulations (charge sums differ only by
#: summation order between the ledger and the record stream).
REL_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough detail to debug the scenario."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


@dataclass
class OracleReport:
    """The outcome of one oracle pass over a scenario result."""

    checks: dict[str, bool] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, invariant: str, ok: bool, detail: str = "") -> None:
        self.checks[invariant] = self.checks.get(invariant, True) and ok
        if not ok:
            self.violations.append(Violation(invariant, detail))

    def summary(self) -> str:
        lines = [
            f"{'ok' if passed else 'FAIL':4s} {invariant}"
            for invariant, passed in sorted(self.checks.items())
        ]
        return "\n".join(lines)


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def check_conservation(result, report: OracleReport) -> None:
    """NU charged in the ledger ≡ NU recorded centrally; feeds drained.

    Under a packet-fault regime the lossless identity weakens to
    *conservation up to unrecovered records*: every charged NU appears
    either centrally or in a site ledger entry the audit could not (or was
    not allowed to) recover — and with reconciliation re-sends enabled, the
    strong identity must hold again.
    """
    charged = result.ledger.total_charged()
    recorded = result.central.total_nu()
    faulty = getattr(result, "amie_endpoint", None) is not None
    if not faulty:
        report.record(
            "conservation.ledger_vs_central",
            _close(charged, recorded),
            f"ledger charged {charged!r} NU but central recorded {recorded!r}",
        )
    else:
        published = sum(
            r.charged_nu for p in result.providers for r in p.feed.ledger
        )
        report.record(
            "conservation.ledger_vs_published",
            _close(charged, published),
            f"ledger charged {charged!r} NU but sites published {published!r}",
        )
        known = result.central.job_ids()
        missing_nu = sum(
            r.charged_nu
            for p in result.providers
            for r in p.feed.ledger
            if r.job_id not in known
        )
        report.record(
            "conservation.up_to_missing",
            _close(recorded + missing_nu, charged),
            f"central {recorded!r} + missing {missing_nu!r} NU != "
            f"charged {charged!r}",
        )
        reconciliation = result.reconciliation
        if reconciliation is not None and reconciliation.resend_enabled:
            report.record(
                "conservation.reconciled",
                reconciliation.total_unrecovered == 0
                and _close(charged, recorded),
                f"audit with re-sends left "
                f"{reconciliation.total_unrecovered} records unrecovered "
                f"(central {recorded!r} NU vs charged {charged!r})",
            )
    summed = sum(r.charged_nu for r in result.records)
    report.record(
        "conservation.record_sum",
        _close(summed, recorded),
        f"record charges sum to {summed!r} but central totals {recorded!r}",
    )
    for provider in result.providers:
        report.record(
            "conservation.feed_drained",
            provider.feed.buffered == 0,
            f"{provider.name} still buffers {provider.feed.buffered} records",
        )
        report.record(
            "conservation.records_emitted",
            provider.records_emitted == len(provider.scheduler.completed),
            f"{provider.name} emitted {provider.records_emitted} records for "
            f"{len(provider.scheduler.completed)} terminal jobs",
        )


def check_ingest_exchange(result, report: OracleReport) -> None:
    """Faulty-exchange bookkeeping must reconcile exactly (no silent loss).

    Lossless runs have no exchange state; every invariant passes vacuously.
    """
    endpoint = getattr(result, "amie_endpoint", None)
    if endpoint is None:
        for invariant in (
            "ingest.feed_counters",
            "ingest.endpoint_counters",
            "ingest.quarantine_structured",
            "ingest.audit_counters",
        ):
            report.record(invariant, True)
        return
    known = result.central.job_ids()
    for provider in result.providers:
        feed = provider.feed
        delivered = endpoint.delivered_records(feed.feed_id)
        unrecovered = sum(1 for r in feed.ledger if r.job_id not in known)
        report.record(
            "ingest.feed_counters",
            feed.records_published == len(feed.ledger)
            and feed.records_published == delivered + unrecovered,
            f"{feed.feed_id}: published {feed.records_published} records but "
            f"ledger holds {len(feed.ledger)}, delivered {delivered}, "
            f"unrecovered {unrecovered}",
        )
    report.record(
        "ingest.endpoint_counters",
        endpoint.packets_received
        == endpoint.packets_accepted
        + endpoint.packets_duplicate
        + endpoint.packets_quarantined,
        f"endpoint received {endpoint.packets_received} packets but "
        f"accepted {endpoint.packets_accepted} + duplicate "
        f"{endpoint.packets_duplicate} + quarantined "
        f"{endpoint.packets_quarantined}",
    )
    structured = all(
        q.reason in ("truncated", "corrupted") and q.detail and q.n_records >= 0
        for q in endpoint.quarantine
    )
    report.record(
        "ingest.quarantine_structured",
        structured and len(endpoint.quarantine) == endpoint.packets_quarantined,
        f"{len(endpoint.quarantine)} quarantine entries for "
        f"{endpoint.packets_quarantined} quarantined packets",
    )
    reconciliation = result.reconciliation
    audit_ok = reconciliation is not None and all(
        audit.published == audit.delivered + audit.unrecovered
        and audit.recovered <= audit.resent
        and (audit.unrecovered == 0 or not reconciliation.resend_enabled)
        for audit in reconciliation.audits
    )
    report.record(
        "ingest.audit_counters",
        audit_ok,
        "reconciliation audit missing or internally inconsistent: "
        f"{reconciliation!r}",
    )


def check_no_double_charge(result, report: OracleReport) -> None:
    """One record per job; charges never exceed the machine's nominal rate."""
    records = result.records
    seen: set[int] = set()
    duplicates: set[int] = set()
    for record in records:
        if record.job_id in seen:
            duplicates.add(record.job_id)
        seen.add(record.job_id)
    report.record(
        "double_charge.unique_jobs",
        not duplicates,
        f"jobs recorded more than once: {sorted(duplicates)[:5]}",
    )
    rates = {p.name: p.cluster.nu_per_core_hour for p in result.providers}
    for record in records:
        rate = rates.get(record.resource)
        if rate is None:
            report.record(
                "double_charge.known_resource",
                False,
                f"job {record.job_id} charged on unknown resource "
                f"{record.resource!r}",
            )
            continue
        nominal = record.cores * record.elapsed / HOUR * rate
        if record.charged_nu < -REL_TOL or (
            record.charged_nu > nominal * (1 + REL_TOL) + REL_TOL
        ):
            report.record(
                "double_charge.nominal_bound",
                False,
                f"job {record.job_id} charged {record.charged_nu} NU, "
                f"nominal at most {nominal}",
            )
    report.record("double_charge.known_resource", True)
    report.record("double_charge.nominal_bound", True)


def check_records_wellformed(result, report: OracleReport) -> None:
    """Timestamps ordered, occupancy bounded, accounts real."""
    horizon = result.config.horizon if result.config is not None else None
    for record in result.records:
        ordered = record.submit_time <= record.end_time and (
            record.start_time is None
            or record.submit_time <= record.start_time <= record.end_time
        )
        if not ordered:
            report.record(
                "records.timestamps_ordered",
                False,
                f"job {record.job_id}: submit={record.submit_time} "
                f"start={record.start_time} end={record.end_time}",
            )
        if horizon is not None and record.end_time > horizon + REL_TOL:
            report.record(
                "records.within_horizon",
                False,
                f"job {record.job_id} ends at {record.end_time}, "
                f"horizon {horizon}",
            )
        if record.elapsed > record.requested_walltime * (1 + REL_TOL):
            report.record(
                "records.occupancy_bounded",
                False,
                f"job {record.job_id} occupied {record.elapsed}s against a "
                f"{record.requested_walltime}s request",
            )
        if record.account not in result.ledger:
            report.record(
                "records.known_account",
                False,
                f"job {record.job_id} charged to unknown account "
                f"{record.account!r}",
            )
        if record.cores < 1:
            report.record(
                "records.positive_cores",
                False,
                f"job {record.job_id} recorded {record.cores} cores",
            )
    for invariant in (
        "records.timestamps_ordered",
        "records.within_horizon",
        "records.occupancy_bounded",
        "records.known_account",
        "records.positive_cores",
    ):
        report.record(invariant, True)


def check_classifier_sanity(result, report: OracleReport) -> None:
    """The attribute classifier covers every record, exactly once."""
    records = result.records
    classification = AttributeClassifier().classify(records)
    labeled, total = classification.coverage(records)
    report.record(
        "classifier.total_coverage",
        labeled == total,
        f"classifier labeled {labeled} of {total} records",
    )
    label_jobs = sum(
        1 for r in records if r.job_id in classification.job_labels
    )
    report.record(
        "classifier.one_label_per_job",
        label_jobs == len(records)
        and len(classification.job_labels) >= len({r.job_id for r in records}),
        f"{label_jobs} labelled of {len(records)} records, "
        f"{len(classification.job_labels)} labels",
    )
    report.record(
        "classifier.identity_totals",
        sum(classification.users_by_modality().values())
        == classification.n_identities,
        f"primary-modality counts sum to "
        f"{sum(classification.users_by_modality().values())} for "
        f"{classification.n_identities} identities",
    )
    valid = all(
        isinstance(m, Modality) for m in classification.job_labels.values()
    )
    report.record(
        "classifier.valid_labels", valid, "non-Modality label emitted"
    )


def check_bounded_lost_work(result, report: OracleReport) -> None:
    """Outages kill at most a machine's worth of work, consistently counted."""
    nodes = {p.name: p.cluster.nodes for p in result.providers}
    cores = {p.name: p.cluster.total_cores for p in result.providers}
    lost_by_site: dict[str, int] = {}
    for injector in result.injectors:
        for event in injector.outages:
            cap = nodes.get(event.site, 0)
            if not (0 <= event.jobs_killed <= cap):
                report.record(
                    "lost_work.kills_bounded",
                    False,
                    f"{event.kind} outage at {event.site} t={event.start} "
                    f"killed {event.jobs_killed} jobs on a {cap}-node machine",
                )
            if event.kind == "full":
                lost_by_site[event.site] = (
                    lost_by_site.get(event.site, 0) + event.jobs_killed
                )
        site = injector.provider.name
        event_kills = sum(e.jobs_killed for e in injector.outages)
        if injector.jobs_killed != event_kills:
            report.record(
                "lost_work.counter_consistent",
                False,
                f"{site} injector counts {injector.jobs_killed} kills but "
                f"its events sum to {event_kills}",
            )
    for provider in result.providers:
        expected = lost_by_site.get(provider.name, 0)
        if provider.jobs_lost_to_outages != expected:
            report.record(
                "lost_work.site_counter",
                False,
                f"{provider.name} reports {provider.jobs_lost_to_outages} "
                f"jobs lost but full-outage events sum to {expected}",
            )
    # Work killed at any single instant cannot exceed the machine.
    outage_starts = sorted(
        {
            (e.site, e.start)
            for injector in result.injectors
            for e in injector.outages
        }
    )
    for site, start in outage_starts:
        killed_cores = sum(
            r.cores
            for r in result.records
            if r.resource == site
            and r.final_state.value == "failed"
            and r.end_time == start
        )
        if killed_cores > cores.get(site, 0):
            report.record(
                "lost_work.cores_bounded",
                False,
                f"outage at {site} t={start} ended jobs totalling "
                f"{killed_cores} cores on a {cores.get(site, 0)}-core machine",
            )
    for invariant in (
        "lost_work.kills_bounded",
        "lost_work.counter_consistent",
        "lost_work.site_counter",
        "lost_work.cores_bounded",
    ):
        report.record(invariant, True)


def check_scenario(result) -> OracleReport:
    """Run every invariant over one :class:`ScenarioResult`."""
    report = OracleReport()
    check_conservation(result, report)
    check_ingest_exchange(result, report)
    check_no_double_charge(result, report)
    check_records_wellformed(result, report)
    check_classifier_sanity(result, report)
    check_bounded_lost_work(result, report)
    return report

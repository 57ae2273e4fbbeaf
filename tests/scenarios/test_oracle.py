"""The invariant oracle: green on honest runs, loud on doctored ones.

Each doctoring test takes a clean scenario result, corrupts one piece of
state the way a real accounting bug would (a double-shipped AMIE record, a
tampered charge, a drifted kill counter), and asserts the *specific*
invariant trips — so a regression that blinds one check cannot hide behind
the others staying green.
"""

import dataclasses

import pytest

from repro.core.modalities import Modality
from repro.infra.amie import QuarantinedPacket
from repro.scenarios import (
    FederationDef,
    IngestFaults,
    ModalityMix,
    OracleReport,
    OutageRegime,
    ScenarioProgram,
    Violation,
    check_scenario,
)
from repro.workloads import SiteSpec, run_scenario

FIXTURE = ScenarioProgram(
    name="oracle-fixture",
    days=2.0,
    seed=7,
    federation=FederationDef(
        preset=None,
        sites=(
            SiteSpec("alpha", 8, 4, 1.0, 1.0e9),
            SiteSpec("beta", 6, 4, 1.2, 6.25e8),
        ),
    ),
    mix=ModalityMix(
        total_users=10,
        weights={Modality.BATCH: 2.0, Modality.EXPLORATORY: 1.0,
                 Modality.GATEWAY: 1.0},
    ),
    outages=OutageRegime(
        site_mtbf_days=0.5,
        repair_median_hours=1.0,
        repair_min_hours=0.25,
        repair_max_hours=4.0,
    ),
    scheduler="fcfs",
)


@pytest.fixture
def result():
    return run_scenario(FIXTURE.compile())


def failed(report):
    return {name for name, ok in report.checks.items() if not ok}


def doctor_record(result, index, **changes):
    """Swap one stored record for a corrupted copy (records are immutable)."""
    records = result.central._records
    records[index] = records[index]._replace(**changes)
    return records[index]


def test_clean_run_is_green(result):
    assert result.records, "fixture must produce usage records"
    report = check_scenario(result)
    assert report.ok
    assert failed(report) == set()
    # Every invariant family actually ran.
    assert {c.split(".")[0] for c in report.checks} == {
        "conservation", "ingest", "double_charge", "records", "classifier",
        "lost_work",
    }


def test_duplicate_record_trips_unique_jobs(result):
    result.central._records.append(result.records[0])
    report = check_scenario(result)
    assert "double_charge.unique_jobs" in failed(report)


def test_tampered_charge_trips_conservation(result):
    doctor_record(result, 0, charged_nu=result.records[0].charged_nu + 1e6)
    report = check_scenario(result)
    bad = failed(report)
    assert "conservation.ledger_vs_central" in bad
    assert "double_charge.nominal_bound" in bad


def test_negative_charge_trips_nominal_bound(result):
    doctor_record(result, 0, charged_nu=-1.0)
    report = check_scenario(result)
    assert "double_charge.nominal_bound" in failed(report)


def test_unknown_resource_trips_known_resource(result):
    doctor_record(result, 0, resource="phantom-machine")
    report = check_scenario(result)
    assert "double_charge.known_resource" in failed(report)


def test_reversed_timestamps_trip_ordering(result):
    record = result.central._records[0]
    doctor_record(result, 0, end_time=record.submit_time - 10.0)
    report = check_scenario(result)
    assert "records.timestamps_ordered" in failed(report)


def test_zero_cores_trips_positive_cores(result):
    doctor_record(result, 0, cores=0)
    report = check_scenario(result)
    assert "records.positive_cores" in failed(report)


def test_unknown_account_trips_known_account(result):
    doctor_record(result, 0, account="slush-fund")
    report = check_scenario(result)
    assert "records.known_account" in failed(report)


def test_drifted_injector_counter_trips_consistency(result):
    assert result.injectors, "outage fixture must install injectors"
    result.injectors[0].jobs_killed += 1
    report = check_scenario(result)
    assert "lost_work.counter_consistent" in failed(report)


def test_drifted_site_counter_trips_site_counter(result):
    result.providers[0].jobs_lost_to_outages += 1
    report = check_scenario(result)
    assert "lost_work.site_counter" in failed(report)


def test_undrained_feed_trips_conservation(result):
    # Emulate a record stuck in a site's AMIE buffer past the final drain.
    provider = result.providers[0]
    provider.feed.publish(result.records[0])
    report = check_scenario(result)
    assert "conservation.feed_drained" in failed(report)


# --------------------------------------------------------- faulty-exchange


FAULTY_FIXTURE = dataclasses.replace(
    FIXTURE,
    name="oracle-fixture-faulty",
    outages=None,
    ingest=IngestFaults(
        drop_rate=0.3,
        duplicate_rate=0.15,
        corrupt_rate=0.15,
        delay_mean_minutes=30.0,
        recovery="audit",
    ),
)


@pytest.fixture
def faulty_result():
    return run_scenario(FAULTY_FIXTURE.compile())


def test_clean_faulty_run_is_green(faulty_result):
    assert faulty_result.amie_endpoint is not None
    report = check_scenario(faulty_result)
    assert report.ok, "\n".join(str(v) for v in report.violations)
    # the weakened-conservation invariants replaced the strict identity
    assert "conservation.ledger_vs_published" in report.checks
    assert "conservation.up_to_missing" in report.checks
    assert "conservation.reconciled" in report.checks
    assert "conservation.ledger_vs_central" not in report.checks


def test_tampered_site_ledger_trips_published_conservation(faulty_result):
    feed = faulty_result.providers[0].feed
    feed.ledger[0] = feed.ledger[0]._replace(
        charged_nu=feed.ledger[0].charged_nu + 1e6
    )
    report = check_scenario(faulty_result)
    assert "conservation.ledger_vs_published" in failed(report)


def test_silent_record_loss_trips_reconciled(faulty_result):
    # Remove a record from central after the audit claimed zero unrecovered:
    # the with-resends conservation identity no longer holds.
    victim = faulty_result.central._records.pop(0)
    faulty_result.central._job_ids.discard(victim.job_id)
    report = check_scenario(faulty_result)
    assert "conservation.reconciled" in failed(report)
    assert "ingest.feed_counters" in failed(report)


def test_drifted_published_counter_trips_feed_counters(faulty_result):
    faulty_result.providers[0].feed.records_published += 1
    report = check_scenario(faulty_result)
    assert "ingest.feed_counters" in failed(report)


def test_drifted_endpoint_counter_trips_endpoint_counters(faulty_result):
    faulty_result.amie_endpoint.packets_received += 1
    report = check_scenario(faulty_result)
    assert "ingest.endpoint_counters" in failed(report)


def test_unstructured_quarantine_trips_quarantine_invariant(faulty_result):
    endpoint = faulty_result.amie_endpoint
    endpoint.quarantine.append(
        QuarantinedPacket(
            feed_id="alpha",
            seq=999,
            reason="gremlins",
            detail="",
            n_records=0,
            received_at=0.0,
        )
    )
    report = check_scenario(faulty_result)
    assert "ingest.quarantine_structured" in failed(report)


def test_disabled_regime_is_structurally_identical_to_no_regime():
    """An all-zero fault regime must take the exact plain-feed code path."""
    plain = dataclasses.replace(FIXTURE, outages=None)
    disabled = dataclasses.replace(
        plain, name="disabled-regime", ingest=IngestFaults()
    )
    config = disabled.compile()
    assert config.packet_faults is not None
    assert not config.faulty_ingest

    def shape(result):
        return sorted(
            (r.user, r.resource, r.submit_time, r.start_time, r.end_time,
             r.cores, round(r.charged_nu, 9))
            for r in result.records
        )

    result_plain = run_scenario(plain.compile())
    result_disabled = run_scenario(config)
    assert result_disabled.amie_endpoint is None
    assert result_disabled.reconciliation is None
    assert shape(result_plain) == shape(result_disabled)
    assert result_plain.central.total_nu() == pytest.approx(
        result_disabled.central.total_nu()
    )


# ---------------------------------------------------------------- report unit


def test_report_and_combines_repeat_records():
    report = OracleReport()
    report.record("inv.a", True)
    report.record("inv.a", False, "broke on job 7")
    report.record("inv.a", True)  # a later success must not mask the failure
    assert report.checks["inv.a"] is False
    assert not report.ok
    assert [str(v) for v in report.violations] == ["inv.a: broke on job 7"]


def test_report_summary_format():
    report = OracleReport()
    report.record("b.second", True)
    report.record("a.first", False, "why")
    assert report.summary() == "FAIL a.first\nok   b.second"
    assert str(Violation("a.first", "why")) == "a.first: why"

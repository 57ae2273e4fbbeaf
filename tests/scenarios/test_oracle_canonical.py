"""Regression: the canonical TeraGrid-2010 campaign satisfies every invariant.

The fuzzer checks arbitrary federations; this suite pins the oracle green on
the one campaign every headline experiment shares (90 days, seed 1, small
scale).  If an accounting or outage-bookkeeping change breaks conservation
here, it breaks every published number in the repo — this is the canary.
"""

import pytest

from repro.scenarios import check_scenario, teragrid_baseline
from repro.workloads.synthetic import CAMPAIGN_DAYS, CampaignKey, run_scenario


@pytest.fixture(scope="module")
def canonical():
    result = run_scenario(CampaignKey.make().config())
    report = check_scenario(result)
    return result, report


def test_canonical_campaign_passes_every_invariant(canonical):
    result, report = canonical
    assert result.records, "the canonical campaign must produce records"
    assert report.ok, "\n".join(
        [report.summary()] + [str(v) for v in report.violations]
    )


def test_every_invariant_family_ran(canonical):
    _result, report = canonical
    assert {check.split(".")[0] for check in report.checks} == {
        "conservation",
        "ingest",
        "double_charge",
        "records",
        "classifier",
        "lost_work",
    }
    assert all(report.checks.values())


def test_canonical_accounting_is_nontrivial(canonical):
    # Guard against a future change making the invariants vacuously true.
    result, _report = canonical
    assert len(result.records) > 100
    assert result.central.total_nu() > 0
    assert result.ledger.total_charged() > 0


def test_dsl_baseline_compiles_to_the_canonical_config():
    # The DSL's teragrid-baseline at the canonical horizon IS the campaign
    # config — the declarative and hand-built paths describe one run.
    assert (
        teragrid_baseline().compile(days=CAMPAIGN_DAYS)
        == CampaignKey.make().config()
    )

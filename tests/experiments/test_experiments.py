"""Tests for the experiment registry and fast-knob experiment runs.

Experiments run here at reduced horizons — correctness of structure and
direction, not publication-quality statistics (that is what benchmarks/ is
for).
"""

import pytest

from repro.core.modalities import MODALITY_ORDER, Modality
from repro.experiments import ExperimentOutput, base, registry, run_experiment
from repro.experiments.base import campaign

ALL_IDS = {
    "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
    "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
    "A1", "A2", "A3", "A4", "A5", "R1",
}


def test_registry_covers_design_md_index():
    assert set(registry) == ALL_IDS


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("T99")


def test_misspelt_reader_knob_fails_before_simulating(monkeypatch):
    def no_campaign(*args, **kwargs):
        raise AssertionError("resolved a campaign for a misspelt knob")

    monkeypatch.setattr(base, "_resolve", no_campaign)
    with pytest.raises(TypeError, match="dayz"):
        run_experiment("T1", dayz=3.0)
    with pytest.raises(TypeError, match="survey_seed"):
        run_experiment("T2", days=3.0, survey_seed=1)  # T5's knob, not T2's


def test_campaign_cache_returns_same_object():
    a = campaign(days=6.0, seed=77, population_scale=0.02)
    b = campaign(days=6.0, seed=77, population_scale=0.02)
    assert a is b
    c = campaign(days=6.0, seed=78, population_scale=0.02)
    assert c is not a


def test_campaign_cache_key_is_spelling_insensitive():
    # Regression: days=6 (int) and days=6.0 (float) used to be distinct memo
    # keys, silently doubling the simulation cost of a mixed-caller suite.
    a = campaign(days=6, seed=79, population_scale=0.02)
    b = campaign(days=6.0, seed=79.0, population_scale=0.02)
    assert a is b


@pytest.fixture(scope="module")
def fast_knobs():
    return dict(days=10.0, seed=2, population_scale=0.03)


def test_t1_structure_and_shape(fast_knobs):
    output = run_experiment("T1", **fast_knobs)
    assert isinstance(output, ExperimentOutput)
    assert output.experiment_id == "T1"
    assert "T1" in output.text
    for key in ("true", "instrumented", "uninstrumented"):
        assert set(output.data[key]) == {m.value for m in MODALITY_ORDER}
    assert (
        output.data["uninstrumented"]["gateway"]
        <= output.data["true"]["gateway"]
    )


def test_t2_nu_shares_sum_to_one(fast_knobs):
    output = run_experiment("T2", **fast_knobs)
    assert sum(output.data["nu_share"].values()) == pytest.approx(1.0)
    assert output.data["gini"] > 0


def test_t3_instrumented_beats_heuristic(fast_knobs):
    output = run_experiment("T3", **fast_knobs)
    assert output.data["instrumented_accuracy"] >= output.data["heuristic_accuracy"]
    assert output.data["heuristic_user_error"]["gateway"] < 0


def test_t4_covers_all_sites(fast_knobs):
    output = run_experiment("T4", **fast_knobs)
    assert len(output.data) == 3  # small federation
    for split in output.data.values():
        assert set(split) == {m.value for m in MODALITY_ORDER}


def test_t5_shares_are_probabilities(fast_knobs):
    output = run_experiment("T5", **fast_knobs)
    for key in ("true_shares", "measured_shares", "survey_shares"):
        shares = output.data[key]
        assert all(0.0 <= v <= 1.0 for v in shares.values())
    assert 0.0 <= output.data["response_rate"] <= 1.0


def test_f1_series_lengths_match(fast_knobs):
    output = run_experiment(
        "F1",
        days=40.0,
        seed=2,
        gateway_adoption_ramp_days=30.0,
        population_scale=0.03,
    )
    lengths = {len(v) for v in output.data.values()}
    assert len(lengths) == 1


def test_f2_ccdf_monotone_decreasing(fast_knobs):
    output = run_experiment("F2", **fast_knobs)
    for series in output.data["ccdf"].values():
        values = [y for _x, y in series]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == 1.0  # every job uses >= 1 core


def test_f3_easy_dominates_fcfs_on_small_jobs():
    output = run_experiment("F3", days=4.0, seed=5)
    small = "small (<=8 cores)"
    assert (
        output.data["EASY"][small]["median_h"]
        <= output.data["FCFS"][small]["median_h"]
    )
    assert set(output.data["utilization"]) == {"FCFS", "EASY"}


def test_f4_reports_all_rates():
    output = run_experiment("F4", days=14.0, hero_rates=(1, 4))
    assert set(output.data) == {1, 4, "crossover_per_week"}
    for rate in (1, 4):
        assert 0 < output.data[rate]["easy"]["utilization"] <= 1
        assert 0 < output.data[rate]["drain"]["utilization"] <= 1


def test_f5_all_strategies_measured():
    output = run_experiment("F5", days=2.0, seed=3)
    assert set(output.data["strategies"]) == {
        "random",
        "round_robin",
        "least_loaded",
        "predicted_start",
    }
    for outcome in output.data["strategies"].values():
        assert outcome["n_started"] > 0


def test_f6_identified_monotone():
    output = run_experiment("F6", days=8.0, coverages=(0.0, 0.5, 1.0))
    identified = [output.data[c]["identified"] for c in (0.0, 0.5, 1.0)]
    assert identified == sorted(identified)
    assert output.data[0.0]["identified"] == 0


def test_f7_sweep_and_coupled():
    output = run_experiment("F7", widths=(2, 8))
    sweep = dict(output.data["sweep"])
    assert sweep[2.0] <= sweep[8.0] + 1e-9
    assert output.data["coupled"]["runtime_slowdown"] > 1.0


def test_a1_reports_all_pads():
    output = run_experiment("A1", days=4.0)
    assert len(output.data) == 4
    for outcome in output.data.values():
        assert 0 < outcome["utilization"] <= 1
        assert outcome["n_finished"] > 0


def test_a2_reactive_beats_sticky():
    output = run_experiment("A2", days=6.0)
    for outcome in output.data.values():
        assert (
            outcome["reactive"]["utilization"]
            >= outcome["sticky"]["utilization"] - 0.02
        )


def test_f8_measurement_flip():
    output = run_experiment("F8", days=5.0, width=40)
    assert output.data["pilot_untagged"]["records_seen"] == 1
    assert output.data["pilot_untagged"]["measured_modality"] == "batch"
    assert output.data["pilot_tagged"]["measured_modality"] == "ensemble"


def test_f8_horizon_before_the_ensemble_starts():
    """The ensemble starts on day 2: over one day no arm leaves a record,
    and each reads 0 records and no measured modality."""
    output = run_experiment("F8", days=1.0)
    for arm in ("direct", "pilot_untagged", "pilot_tagged"):
        assert output.data[arm]["records_seen"] == 0
        assert output.data[arm]["measured_modality"] == "-"


def test_f8_unfinished_ensemble_reads_no_makespan():
    """No arm's ensemble finishes within one day: its makespan reads ``-``."""
    output = run_experiment("F8", days=1.0)
    assert "nan" not in output.text
    rows = [line.split() for line in output.text.splitlines()
            if line.startswith(("direct", "pilot"))]
    # makespan, accounting records, measured modality
    assert [row[-3:] for row in rows] == [["-", "0", "-"]] * 3


def test_f9_structure(fast_knobs):
    output = run_experiment("F9", **fast_knobs)
    for modality in ("batch", "ensemble", "coupled"):
        assert "transfers" in output.data[modality]
    assert output.data["total_transfers"] >= 0


def test_r1_replicates_structure():
    output = run_experiment("R1", days=5.0, seeds=(11, 12), population_scale=0.02)
    assert output.data["n_seeds"] == 2
    for modality in ("batch", "gateway"):
        assert len(output.data[modality]["values"]) == 2


def test_t6_fields_structure(fast_knobs):
    output = run_experiment("T6", **fast_knobs)
    assert output.data
    total = sum(entry["nu"] for entry in output.data.values())
    assert total > 0
    assert "(unassigned)" not in output.data


def test_a3_structure():
    output = run_experiment("A3", mtbfs_hours=(500.0,))
    entry = output.data[500.0]
    assert entry["checkpoint"]["waste_ratio"] <= entry["restart"]["waste_ratio"]


def test_a5_recovery_ladder():
    output = run_experiment("A5", days=3.0, regimes=("hostile",))
    clean = output.data["clean"]
    none = output.data["hostile / none"]
    retry = output.data["hostile / retry"]
    audit = output.data["hostile / audit"]
    # clean cell: lossless exchange, perfect conservation
    assert clean["delivered"] == clean["published"]
    assert clean["nu_err"] == pytest.approx(0.0, abs=1e-9)
    assert clean["unrecovered"] == 0
    # the recovery ladder strictly improves delivery
    assert none["delivered"] < retry["delivered"] <= audit["delivered"]
    assert none["unrecovered"] > 0
    assert retry["unrecovered"] <= none["unrecovered"]
    # the audit's guarantee: nothing unrecovered, conservation restored
    assert audit["unrecovered"] == 0
    assert audit["delivered"] == audit["published"]
    assert audit["nu_err"] == pytest.approx(0.0, abs=1e-9)
    # measurement damage is undercounting, not misclassification
    assert none["accuracy"] > 0.9


def test_t7_gateway_report(fast_knobs):
    output = run_experiment("T7", **fast_knobs)
    assert len(output.data) >= 2  # several gateways active
    for entry in output.data.values():
        assert entry["end_users"] >= 0
        assert 0.0 <= entry["coverage"] <= 1.0


def test_t8_access_paths_sum_to_totals(fast_knobs):
    output = run_experiment("T8", **fast_knobs)
    for modality, entry in output.data.items():
        parts = sum(entry[p] for p in ("login", "gram", "gateway", "engine/other"))
        assert parts == entry["total"]
    assert output.data["gateway"]["gateway"] == output.data["gateway"]["total"]

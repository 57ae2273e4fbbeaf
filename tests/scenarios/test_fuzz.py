"""The fuzzing harness contract: determinism, replayability, exit codes."""

import io

import pytest

from repro.__main__ import main
from repro.scenarios import OracleReport, ScenarioProgram
from repro.scenarios.fuzz import run_fuzz

BUDGET = 5
SEED = 3


def capture_run(**kwargs):
    out = io.StringIO()
    outcome = run_fuzz(out=out, **kwargs)
    return outcome, out.getvalue()


def test_same_seed_and_budget_is_byte_identical():
    first, first_text = capture_run(budget=BUDGET, seed=SEED)
    second, second_text = capture_run(budget=BUDGET, seed=SEED)
    assert first_text == second_text
    assert first.ok and second.ok
    assert first.executed == second.executed == BUDGET
    assert first_text.startswith(f"fuzz: budget={BUDGET} seed={SEED}")
    assert f"ok: {BUDGET} scenarios, all invariants held" in first_text


def test_different_seeds_draw_different_scenarios():
    _, text_a = capture_run(budget=2, seed=0)
    _, text_b = capture_run(budget=2, seed=1)
    # Headers differ at minimum; both runs stay green on the real oracle.
    assert text_a != text_b


def test_argument_validation():
    with pytest.raises(ValueError, match="--budget"):
        run_fuzz(budget=0, seed=0, out=io.StringIO())
    with pytest.raises(ValueError, match="--seed"):
        run_fuzz(budget=1, seed=-1, out=io.StringIO())
    # Below the strategies' 2-day floor, or not a finite number at all.
    for max_days in (0.0, 1.99, -3.0, float("nan"), float("inf")):
        out = io.StringIO()
        with pytest.raises(ValueError, match="--max-days"):
            run_fuzz(budget=1, seed=0, max_days=max_days, out=out)
        assert out.getvalue() == ""  # rejected before any scenario ran


def test_invariant_violation_prints_replay_line(monkeypatch):
    def always_fails(result):
        report = OracleReport()
        report.record("conservation.ledger_vs_central", False, "doctored")
        return report

    monkeypatch.setattr(
        "repro.scenarios.fuzz.check_scenario", always_fails
    )
    outcome, text = capture_run(budget=3, seed=SEED)
    assert not outcome.ok
    assert isinstance(outcome.failure, ScenarioProgram)
    assert outcome.failure_report is not None
    assert "FAILED: 1 invariant violation(s)" in text
    assert "conservation.ledger_vs_central: doctored" in text
    assert "FAIL conservation.ledger_vs_central" in text
    # The replay line reproduces the failure from the seed alone.
    assert f"replay:   python -m repro fuzz --budget 3 --seed {SEED}" in text
    assert "scenario: ScenarioProgram(" in text
    assert "config:   ScenarioConfig(" in text


def test_failure_output_is_deterministic_too(monkeypatch):
    def always_fails(result):
        report = OracleReport()
        report.record("double_charge.unique_jobs", False, "doctored")
        return report

    monkeypatch.setattr(
        "repro.scenarios.fuzz.check_scenario", always_fails
    )
    _, text_a = capture_run(budget=2, seed=SEED)
    _, text_b = capture_run(budget=2, seed=SEED)
    assert text_a == text_b


def test_simulator_crash_is_reported_with_replay(monkeypatch):
    def explodes(config):
        raise RuntimeError("boom")

    monkeypatch.setattr("repro.scenarios.fuzz.run_scenario", explodes)
    outcome, text = capture_run(budget=2, seed=SEED)
    assert not outcome.ok
    assert outcome.error == "RuntimeError: boom"
    # The crashing program survives as the (shrunk) failure example.
    assert isinstance(outcome.failure, ScenarioProgram)
    assert "FAILED: scenario crashed: RuntimeError: boom" in text
    assert (
        f"replay:   python -m repro fuzz --budget 2 --seed {SEED} --max-days 6\n"
        in text
    )
    # The replay line names the scenario space the failure was drawn from.
    _, wider = capture_run(budget=2, seed=SEED, max_days=10.0)
    assert (
        f"replay:   python -m repro fuzz --budget 2 --seed {SEED} --max-days 10\n"
        in wider
    )


# ---------------------------------------------------------------- CLI


def test_cli_fuzz_green_exit_zero(capsys):
    assert main(["fuzz", "--budget", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "fuzz: budget=2 seed=0" in out
    assert "ok: 2 scenarios" in out


def test_cli_fuzz_bad_budget_exit_two(capsys):
    assert main(["fuzz", "--budget", "0"]) == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("max_days", ["0", "nan", "1.5"])
def test_cli_fuzz_bad_max_days_exit_two(max_days, capsys):
    assert main(["fuzz", "--budget", "1", "--max-days", max_days]) == 2
    captured = capsys.readouterr()
    assert "--max-days must be a finite number >= 2" in captured.err
    assert captured.out == ""


def test_cli_fuzz_red_exit_one(monkeypatch, capsys):
    def always_fails(result):
        report = OracleReport()
        report.record("records.positive_cores", False, "doctored")
        return report

    monkeypatch.setattr(
        "repro.scenarios.fuzz.check_scenario", always_fails
    )
    assert main(["fuzz", "--budget", "2", "--seed", "0"]) == 1
    assert "replay:" in capsys.readouterr().out


def test_cli_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("osg-opportunistic", "grid5000-reconfig",
                 "deadline-gateway-campaign", "teragrid-baseline"):
        assert name in out


def test_cli_scenario_run_library_entry(capsys):
    assert main(["scenario", "run", "grid5000-reconfig", "--days", "2"]) == 0
    out = capsys.readouterr().out
    assert "scenario: grid5000-reconfig" in out
    assert "invariants:" in out
    assert "FAIL" not in out


def test_cli_scenario_run_unknown_name(capsys):
    assert main(["scenario", "run", "atlantis-grid"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_scenario_run_without_name(capsys):
    assert main(["scenario", "run"]) == 2
    assert "needs a library name" in capsys.readouterr().err

"""Property-based scenario fuzzing: random federations vs. the oracle.

:func:`run_fuzz` drives hypothesis over the scenario-space strategies with a
fixed seed and budget: each drawn :class:`ScenarioProgram` is compiled,
simulated, and checked against every invariant in
:mod:`repro.scenarios.oracle`.  Two guarantees the CLI contract depends on:

* **determinism** — the same ``(seed, budget)`` replays the identical
  scenario sequence (the hypothesis RNG is pinned with ``@seed`` and the
  example database is disabled), and the report is byte-stable: no timing,
  no ordering from unsorted containers, hypothesis's own chatter silenced;
* **replayability** — a failure report carries the offending program (shrunk
  to a minimal counterexample by hypothesis), the compiled config and the
  ``repro fuzz`` invocation that reproduces it from the seed alone.

A scenario that *crashes* the simulator is as much a finding as one that
breaks an invariant; both are shrunk and reported the same way.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import IO, Optional

try:
    from hypothesis import HealthCheck, given
    from hypothesis import seed as hypothesis_seed
    from hypothesis import settings as hypothesis_settings
    from hypothesis.reporting import with_reporter
except ImportError as exc:  # pragma: no cover - environment-dependent
    raise ImportError(
        "scenario fuzzing needs hypothesis (pip install hypothesis)"
    ) from exc

from repro.scenarios.dsl import ScenarioProgram
from repro.scenarios.oracle import OracleReport, check_scenario
from repro.scenarios.strategies import MIN_DAYS, scenario_programs
from repro.workloads.synthetic import run_scenario

__all__ = ["FuzzOutcome", "run_fuzz"]


class OracleViolationError(AssertionError):
    """A scenario broke at least one invariant (drives hypothesis shrinking)."""


@dataclass
class FuzzOutcome:
    """What one fuzzing campaign did."""

    budget: int
    seed: int
    max_days: float
    executed: int = 0
    failure: Optional[ScenarioProgram] = None
    failure_report: Optional[OracleReport] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.error is None


def _print_replay(outcome: FuzzOutcome, out: IO[str]) -> None:
    if outcome.failure is not None:
        print(f"scenario: {outcome.failure!r}", file=out)
        print(f"config:   {outcome.failure.compile()!r}", file=out)
    print(
        f"replay:   python -m repro fuzz --budget {outcome.budget} "
        f"--seed {outcome.seed} --max-days {outcome.max_days:g}",
        file=out,
    )


def run_fuzz(
    budget: int,
    seed: int,
    max_days: float = 6.0,
    out: IO[str] = sys.stdout,
) -> FuzzOutcome:
    """Run ``budget`` random scenarios against the oracle; report to ``out``.

    Returns the outcome (``.ok`` decides the CLI exit code).  The executed
    count can exceed the budget on failure: hypothesis replays scenarios
    while shrinking to a minimal counterexample, which keeps the *reported*
    program small without affecting determinism.
    """
    if budget < 1:
        raise ValueError(f"--budget must be >= 1, got {budget}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    # The strategies draw horizons of at least MIN_DAYS: a smaller (or NaN)
    # bound would only surface as a crash inside the first draw.
    if not MIN_DAYS <= max_days < math.inf:
        raise ValueError(
            f"--max-days must be a finite number >= {MIN_DAYS:g}, got {max_days}"
        )
    outcome = FuzzOutcome(budget=budget, seed=seed, max_days=max_days)
    print(f"fuzz: budget={budget} seed={seed} max-days={max_days:g}", file=out)

    @hypothesis_settings(
        max_examples=budget,
        database=None,
        deadline=None,
        derandomize=False,
        print_blob=False,
        # Shrinking a failure can stumble into a *different* bug; chase one
        # counterexample to its minimum instead of raising an ExceptionGroup
        # (which would be reported as a harness crash, nondeterministically).
        report_multiple_bugs=False,
        suppress_health_check=list(HealthCheck),
    )
    @hypothesis_seed(seed)
    @given(scenario_programs(max_days=max_days))
    def property_holds(program: ScenarioProgram) -> None:
        outcome.executed += 1
        # Remember the program under test: if it crashes the simulator,
        # hypothesis's final shrink replay leaves the minimal example here.
        outcome.failure = program
        result = run_scenario(program.compile())
        report = check_scenario(result)
        if not report.ok:
            outcome.failure_report = report
            raise OracleViolationError(
                "; ".join(str(v) for v in report.violations)
            )
        outcome.failure = None

    try:
        # Hypothesis narrates falsifying examples through its reporter;
        # silence it so the byte-stable report below is the only output.
        with with_reporter(lambda _message: None):
            property_holds()
    except OracleViolationError:
        report = outcome.failure_report
        assert report is not None
        print(
            f"FAILED: {len(report.violations)} invariant violation(s)",
            file=out,
        )
        for violation in report.violations:
            print(f"  {violation}", file=out)
        print("invariants:", file=out)
        for line in report.summary().splitlines():
            print(f"  {line}", file=out)
        _print_replay(outcome, out)
    except Exception as exc:  # simulator crash or harness fault — report it
        outcome.error = f"{type(exc).__name__}: {exc}"
        print(f"FAILED: scenario crashed: {outcome.error}", file=out)
        _print_replay(outcome, out)
    else:
        print(f"ok: {outcome.executed} scenarios, all invariants held", file=out)
    return outcome

"""Chaos-injection tests: the fault-tolerance claims, proven.

The harness injects worker kills, hangs and cache corruption via the
``REPRO_CHAOS`` environment variable; these tests assert the runner's
contract — sweeps complete, the CLI never crashes, and the final output is
byte-identical to a fault-free run.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.base import (
    ExperimentOutput,
    ExperimentTask,
    register_tasks,
    registry,
)
from repro.runner import ParallelRunner, ResultCache, RetryPolicy
from repro.runner.cache import read_entry
from repro.runner.chaos import (
    KILL_EXIT_CODE,
    ChaosConfig,
    chaos_from_env,
    maybe_corrupt_entry,
)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool chaos tests rely on fork inheriting the test registry",
)


# -- spec parsing --------------------------------------------------------------

def test_parse_full_spec():
    config = ChaosConfig.parse("kill:0.2,hang:0.1,corrupt:0.05")
    assert (config.kill, config.hang, config.corrupt) == (0.2, 0.1, 0.05)
    assert config.active


def test_parse_partial_spec_defaults_rest_to_zero():
    config = ChaosConfig.parse("kill:1.0")
    assert config.kill == 1.0 and config.hang == 0.0 and config.corrupt == 0.0


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown chaos kind"):
        ChaosConfig.parse("explode:0.5")


def test_parse_rejects_non_numeric_probability():
    with pytest.raises(ValueError, match="must be a number"):
        ChaosConfig.parse("kill:often")


def test_parse_rejects_out_of_range_probability():
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        ChaosConfig.parse("hang:1.5")


def test_env_unset_means_inactive(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert not chaos_from_env().active


def test_env_roundtrip(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "kill:0.3")
    monkeypatch.setenv("REPRO_CHAOS_SEED", "9")
    monkeypatch.setenv("REPRO_CHAOS_HANG_SECONDS", "2.5")
    config = chaos_from_env()
    assert config.kill == 0.3 and config.seed == 9
    assert config.hang_seconds == 2.5


# -- decision determinism ------------------------------------------------------

def test_decisions_are_pure_functions_of_seed_site_attempt():
    a = ChaosConfig(kill=0.5, seed=1)
    b = ChaosConfig(kill=0.5, seed=1)
    decisions_a = [a.should_kill("t", n) for n in range(1, 20)]
    decisions_b = [b.should_kill("t", n) for n in range(1, 20)]
    assert decisions_a == decisions_b
    assert any(decisions_a) and not all(decisions_a)  # p=0.5 mixes outcomes
    assert decisions_a != [
        ChaosConfig(kill=0.5, seed=2).should_kill("t", n) for n in range(1, 20)
    ]


def test_pre_task_is_gated_out_of_the_parent_process():
    # Were the gate missing, kill=1.0 would os._exit the test process here —
    # surviving this call *is* the assertion.
    config = ChaosConfig(kill=1.0, hang=1.0, hang_seconds=60.0)
    assert multiprocessing.parent_process() is None
    config.pre_task("any-task", 1)


def test_kill_exit_code_is_distinctive():
    assert KILL_EXIT_CODE not in (0, 1, 2)


# -- corruption ----------------------------------------------------------------

def test_maybe_corrupt_entry_damages_detectably(tmp_path):
    cache = ResultCache(root=tmp_path)
    cache.put("T1", {}, 1, {"rows": [1, 2]})
    (entry,) = cache.entries()
    assert maybe_corrupt_entry(ChaosConfig(corrupt=1.0), entry, "key")
    with pytest.raises(ValueError):
        read_entry(entry)


def test_corrupt_probability_zero_never_touches_files(tmp_path):
    target = tmp_path / "entry.pkl"
    target.write_bytes(b"pristine")
    assert not maybe_corrupt_entry(ChaosConfig(corrupt=0.0), target, "key")
    assert target.read_bytes() == b"pristine"


def test_corrupted_sweep_recovers_by_quarantine_and_recompute(
    tmp_path, monkeypatch, chaos_experiment
):
    clean = ParallelRunner(jobs=1, use_cache=False).run("CZ")

    monkeypatch.setenv("REPRO_CHAOS", "corrupt:1.0")
    poisoned = ParallelRunner(jobs=1, cache=ResultCache(root=tmp_path))
    first = poisoned.run("CZ")
    assert first.text == clean.text  # corruption hits the disk, not the value

    monkeypatch.delenv("REPRO_CHAOS")
    reader = ParallelRunner(jobs=1, cache=ResultCache(root=tmp_path))
    second = reader.run("CZ")
    assert second.text == clean.text
    assert reader.cache_stats.quarantined == 4
    assert reader.cache_stats.hits == 0  # every poisoned entry was rejected
    assert len(reader.cache.quarantined_entries()) == 4


# -- a tiny registered experiment for end-to-end injection ---------------------

def _cz_plan(seeds=(1, 2, 3, 4), **_knobs):
    return [
        ExperimentTask("CZ", index, {"seed": seed}, seed)
        for index, seed in enumerate(seeds)
    ]


def _cz_execute(seed):
    return seed * 11


def _cz_merge(partials, **_knobs):
    return ExperimentOutput(
        "CZ", "chaos probe", text=",".join(str(p) for p in partials)
    )


@pytest.fixture
def chaos_experiment():
    register_tasks("CZ", _cz_plan, _cz_execute, _cz_merge)
    yield
    registry.pop("CZ", None)


# -- end-to-end: sweeps survive injected faults, byte-identically --------------

@fork_only
def test_kill_sweep_completes_byte_identical(monkeypatch, chaos_experiment):
    clean = ParallelRunner(jobs=1, use_cache=False).run("CZ")

    monkeypatch.setenv("REPRO_CHAOS", "kill:0.5")
    chaotic = ParallelRunner(jobs=2, use_cache=False)
    survived = chaotic.run("CZ")

    assert survived.text == clean.text
    assert survived.data == clean.data
    assert not chaotic.failures
    # The scenario must actually have injected something to prove anything.
    assert chaotic.pool_deaths > 0
    assert chaotic.retries > 0 or chaotic.degraded_tasks


@fork_only
def test_certain_kill_degrades_to_serial_and_still_finishes(
    monkeypatch, chaos_experiment
):
    clean = ParallelRunner(jobs=1, use_cache=False).run("CZ")

    monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")  # no pool attempt can live
    chaotic = ParallelRunner(
        jobs=2, use_cache=False,
        retry=RetryPolicy(max_attempts=2, base_delay=0.01),
        max_pool_deaths=2,
    )
    survived = chaotic.run("CZ")
    assert survived.text == clean.text
    assert not chaotic.failures
    assert chaotic.pool_deaths == 2  # gave up on pools...
    assert len(chaotic.degraded_tasks) == 4  # ...and finished inline


@fork_only
def test_hangs_become_timeouts_then_degrade(monkeypatch, chaos_experiment):
    clean = ParallelRunner(jobs=1, use_cache=False).run("CZ")

    monkeypatch.setenv("REPRO_CHAOS", "hang:1.0")
    monkeypatch.setenv("REPRO_CHAOS_HANG_SECONDS", "60")
    chaotic = ParallelRunner(
        jobs=2, use_cache=False, task_timeout=0.5,
        retry=RetryPolicy(max_attempts=2, base_delay=0.01),
    )
    survived = chaotic.run("CZ")
    assert survived.text == clean.text
    assert not chaotic.failures
    # Every task hung, timed out in-pool, and was rescued inline (where
    # chaos is gated off); none may be reported failed.
    assert len(chaotic.degraded_tasks) == 4


def _bad_execute(seed):
    if seed == 2:
        raise RuntimeError("task bug, deterministic")
    return seed


@pytest.fixture
def buggy_experiment():
    register_tasks(
        "BZ",
        lambda **_: [
            ExperimentTask("BZ", i, {"seed": s}, s) for i, s in enumerate((1, 2, 3))
        ],
        _bad_execute,
        _cz_merge,
    )
    yield
    registry.pop("BZ", None)


def test_task_exceptions_are_contained_not_retried(buggy_experiment):
    runner = ParallelRunner(jobs=1, use_cache=False)
    output = runner.run("BZ")
    assert output.title == "FAILED"
    assert "1 of 3 task(s) failed" in output.text
    assert "RuntimeError: task bug" in output.text
    (failure,) = runner.failures
    assert failure.kind == "exception"
    assert failure.attempts == 1  # exceptions never burn retries
    assert runner.retries == 0


# -- acceptance: SIGKILL mid-sweep, resume re-runs only the incomplete ---------

def _journal_events(path: Path) -> list[dict]:
    events = []
    if path.is_file():
        for line in path.read_text().splitlines():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                pass
    return events


@pytest.mark.slow
def test_sigkill_then_resume_reruns_only_incomplete_tasks(tmp_path):
    repo_src = Path(__file__).resolve().parents[2] / "src"
    env = dict(
        os.environ,
        PYTHONPATH=str(repo_src),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
    )
    argv = [
        sys.executable, "-m", "repro", "run-all", "--fast", "--only", "R1",
        "--jobs", "1", "--runs-dir", str(tmp_path / "runs"),
        "--out", str(tmp_path / "dead.txt"),
    ]
    victim = subprocess.Popen(
        argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    # Wait for the first durable completion, then SIGKILL mid-sweep.
    deadline = time.time() + 120
    journal_path = None
    completed_before = 0
    while time.time() < deadline:
        run_dirs = sorted((tmp_path / "runs").glob("*/journal.jsonl"))
        if run_dirs:
            journal_path = run_dirs[0]
            completed_before = sum(
                1 for e in _journal_events(journal_path)
                if e.get("event") == "task-completed"
            )
            if completed_before:
                break
        time.sleep(0.05)
    assert journal_path is not None and completed_before >= 1
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)
    # Settle the ground truth *after* the kill: completions recorded so far.
    completed_at_kill = sum(
        1 for e in _journal_events(journal_path)
        if e.get("event") == "task-completed"
    )
    assert 1 <= completed_at_kill <= 3

    run_id = journal_path.parent.name
    resume = subprocess.run(
        [
            sys.executable, "-m", "repro", "run-all", "--fast", "--only", "R1",
            "--jobs", "1", "--runs-dir", str(tmp_path / "runs"),
            "--resume", run_id, "--out", str(tmp_path / "resumed.txt"),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert resume.returncode == 0, resume.stderr

    # The resume appends to the same journal; split at its run-started event.
    events = _journal_events(journal_path)
    (resume_start,) = [
        i for i, e in enumerate(events)
        if e.get("event") == "run-started" and e.get("resumed")
    ]
    resume_events = events[resume_start:]
    skipped = [
        e for e in resume_events
        if e.get("event") == "task-completed" and e.get("cached")
    ]
    recomputed = [e for e in resume_events if e.get("event") == "task-started"]
    # Journal-recorded completions were skipped via the journal's skip-set; a
    # completion whose cache write landed but whose journal line was torn by
    # the SIGKILL may still be served from cache.  Either way: never re-run.
    assert len(skipped) >= completed_at_kill
    assert len(recomputed) == 3 - len(skipped)  # R1 fast = 3 tasks total
    assert len(recomputed) < 3  # something was genuinely skipped

    clean = subprocess.run(
        [
            sys.executable, "-m", "repro", "run-all", "--fast", "--only", "R1",
            "--jobs", "1", "--no-cache", "--no-journal",
            "--out", str(tmp_path / "clean.txt"),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert clean.returncode == 0, clean.stderr
    assert (tmp_path / "resumed.txt").read_bytes() == (
        tmp_path / "clean.txt"
    ).read_bytes()

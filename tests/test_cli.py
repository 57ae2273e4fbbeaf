"""Tests for the ``python -m repro`` command line."""

import pytest

from repro.__main__ import main


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 23
    # Each row names the experiment's own module, reader or fan-out alike.
    for row in ("T1   t1_users", "F1   f1_growth", "F7   f7_workflows",
                "A1   a1_walltime_accuracy", "R1   r1_replicates"):
        assert row in lines


def test_taxonomy_prints_table(capsys):
    assert main(["taxonomy"]) == 0
    out = capsys.readouterr().out
    assert "Science-gateway access" in out


def test_run_unknown_experiment_fails(capsys):
    assert main(["run", "T99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_executes_experiment(capsys):
    assert main(["run", "f3", "--days", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "F3" in out
    assert "EASY" in out


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_run_all_subset_to_stdout(capsys):
    argv = ["run-all", "--fast", "--only", "A1", "--jobs", "1",
            "--no-cache", "--no-journal"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "A1" in out
    assert "regenerated in" not in out  # timing is stderr-only noise


# -- run-all / parallel / caching ---------------------------------------------

def _run_all(tmp_path, name, *extra):
    target = tmp_path / name
    code = main(
        ["run-all", "--fast", "--only", "R1", "--out", str(target),
         "--cache-dir", str(tmp_path / "cache"),
         "--runs-dir", str(tmp_path / "runs"), *extra]
    )
    return code, target


def test_run_all_writes_report_without_timing_lines(tmp_path, capsys):
    code, target = _run_all(tmp_path, "report.txt", "--jobs", "1")
    assert code == 0
    text = target.read_text()
    assert "R1" in text
    assert "regenerated in" not in text  # timing is stderr-only noise
    captured = capsys.readouterr()
    assert "jobs=1" in captured.err
    assert f"report written to {target}" in captured.out


def test_run_all_cache_miss_then_hit(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "first.txt", "--jobs", "1")
    assert code == 0
    assert "3 misses" in capsys.readouterr().err  # R1 fast = 3 replicate tasks

    code, _ = _run_all(tmp_path, "second.txt", "--jobs", "1")
    assert code == 0
    assert "3 hits, 0 misses" in capsys.readouterr().err


def test_run_all_reports_are_byte_identical_across_jobs(tmp_path, capsys):
    code, serial = _run_all(tmp_path, "serial.txt", "--jobs", "1", "--no-cache")
    assert code == 0
    code, parallel = _run_all(tmp_path, "parallel.txt", "--jobs", "2", "--no-cache")
    assert code == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_run_all_no_cache_skips_the_cache(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "report.txt", "--jobs", "1", "--no-cache")
    assert code == 0
    assert "cache: off" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


def test_run_all_unknown_experiment_fails(tmp_path, capsys):
    code = main(["run-all", "--only", "ZZ", "--no-cache", "--no-journal",
                 "--out", str(tmp_path / "r.txt")])
    assert code == 2
    assert "unknown experiments" in capsys.readouterr().err


def test_run_with_jobs_and_cache_flags(tmp_path, capsys):
    argv = ["run", "r1", "--days", "1", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    assert "R1" in capsys.readouterr().out
    assert (tmp_path / "cache").is_dir()  # results were cached

    assert main(argv) == 0  # second invocation served from cache
    assert "R1" in capsys.readouterr().out


def test_bad_repro_jobs_env_is_a_clean_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "garbage")
    code = main(["run-all", "--fast", "--only", "R1", "--no-cache",
                 "--no-journal", "--out", str(tmp_path / "r.txt")])
    assert code == 2
    assert "REPRO_JOBS" in capsys.readouterr().err


def test_bad_chaos_spec_is_a_clean_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CHAOS", "explode:yes")
    code = main(["run-all", "--fast", "--only", "R1", "--no-cache",
                 "--no-journal", "--out", str(tmp_path / "r.txt")])
    assert code == 2
    assert "unknown chaos kind" in capsys.readouterr().err


def test_negative_retries_is_a_clean_error(tmp_path, capsys):
    code = main(["run-all", "--fast", "--only", "R1", "--no-cache",
                 "--no-journal", "--retries", "-1",
                 "--out", str(tmp_path / "r.txt")])
    assert code == 2
    assert "--retries" in capsys.readouterr().err


# -- journal / resume ----------------------------------------------------------

def test_run_all_journals_by_default(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "report.txt", "--jobs", "1")
    assert code == 0
    assert "journal at" in capsys.readouterr().err
    (journal,) = (tmp_path / "runs").glob("*/journal.jsonl")
    text = journal.read_text()
    assert '"event":"run-started"' in text
    assert '"event":"run-completed"' in text


def test_no_journal_opts_out(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "report.txt", "--jobs", "1", "--no-journal")
    assert code == 0
    assert "journal at" not in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_resume_skips_completed_tasks(tmp_path, capsys):
    code, first = _run_all(tmp_path, "first.txt", "--jobs", "1")
    assert code == 0
    capsys.readouterr()
    (journal,) = (tmp_path / "runs").glob("*/journal.jsonl")
    run_id = journal.parent.name

    code, second = _run_all(
        tmp_path, "second.txt", "--jobs", "1", "--resume", run_id
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "3 hits, 0 misses" in err
    assert "resumed: 3 skipped" in err
    assert first.read_bytes() == second.read_bytes()


def test_resume_unknown_run_id_fails_cleanly(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "r.txt", "--resume", "never-ran")
    assert code == 2
    assert "no journal" in capsys.readouterr().err


def test_resume_requires_the_cache(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "r.txt", "--resume", "whatever", "--no-cache")
    assert code == 2
    assert "--resume needs the result cache" in capsys.readouterr().err


def test_task_timeout_failures_exit_nonzero_without_crashing(tmp_path, capsys):
    # Drop the in-process campaign memo: memoized tasks return instantly and
    # would never hit the wall-clock limit this test is about.
    from repro.experiments.base import _campaign_cache

    _campaign_cache.clear()
    code, target = _run_all(
        tmp_path, "report.txt", "--jobs", "1", "--no-cache",
        "--task-timeout", "0.05", "--retries", "0",
    )
    assert code == 3  # completed-with-failures, not a crash
    captured = capsys.readouterr()
    assert "failed: 3" in captured.err
    assert "[task failed] R1" in captured.err
    text = target.read_text()
    assert "FAILED" in text and "task(s) failed" in text


def test_run_no_cache_flag(tmp_path, capsys):
    assert main(["run", "r1", "--days", "1", "--jobs", "1", "--no-cache"]) == 0
    assert "R1" in capsys.readouterr().out


def test_cache_info_and_clear(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(["run", "r1", "--days", "1", "--jobs", "1",
                 "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()

    assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
    info = capsys.readouterr().out
    assert str(cache_dir) in info
    # R1 default seeds = 5 replicates, each reading its own campaign.
    assert "results:      5 entries (5 current), 0 quarantined" in info
    assert "artifacts:    5 entries (5 current), 0 quarantined" in info

    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    assert ": 5 results, 5 artifacts" in capsys.readouterr().out

    assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
    info = capsys.readouterr().out
    assert "results:      0 entries" in info
    assert "artifacts:    0 entries" in info


# -- campaign artifacts: stats / clear / gc / --timings / --no-cache -----------

def test_run_all_populates_the_artifact_store(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "report.txt", "--jobs", "1")
    assert code == 0
    capsys.readouterr()
    artifacts = tmp_path / "cache" / "artifacts"
    assert artifacts.is_dir()
    assert list(artifacts.glob("*/*.pkl"))  # one per distinct campaign


def test_no_cache_disables_the_store_same_bytes(tmp_path, capsys):
    code, with_store = _run_all(tmp_path, "with.txt", "--jobs", "1")
    assert code == 0
    code, without = _run_all(tmp_path, "without.txt", "--jobs", "1", "--no-cache")
    assert code == 0
    capsys.readouterr()
    assert with_store.read_bytes() == without.read_bytes()


def test_timings_flag_prints_stage_and_campaign_counters(tmp_path, capsys):
    from repro.experiments.base import _campaign_cache

    _campaign_cache.clear()  # deterministic "simulated" count in one process
    code, _ = _run_all(tmp_path, "report.txt", "--jobs", "1", "--timings")
    assert code == 0
    err = capsys.readouterr().err
    assert "[timings:" in err and "campaign:" in err
    assert "[campaigns: 3 distinct, 3 simulated" in err  # R1 fast = 3 seeds
    assert "0 fallback simulations" in err


def test_cache_stats_reports_artifacts(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "report.txt", "--jobs", "1")
    assert code == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    (row,) = [line for line in out.splitlines() if line.startswith("artifacts:")]
    assert row.startswith("artifacts:    3 entries (3 current), 0 quarantined, ")
    assert not row.endswith(" 0 bytes")


def test_cache_clear_empties_both_namespaces(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "report.txt", "--jobs", "1")
    assert code == 0
    cache_dir = tmp_path / "cache"
    assert list(cache_dir.rglob("*.pkl"))
    capsys.readouterr()

    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    assert list(cache_dir.rglob("*.pkl")) == []
    assert ": 3 results, 3 artifacts" in capsys.readouterr().out


def test_cache_gc_prunes_stale_code_versions(tmp_path, capsys):
    """Both namespaces: a planted stale result and artifact go, current stay."""
    code, _ = _run_all(tmp_path, "report.txt", "--jobs", "1")
    assert code == 0
    stale = []
    for namespace in ("results", "artifacts"):
        version_dir = tmp_path / "cache" / namespace / "0123456789abcdef"
        version_dir.mkdir(parents=True)
        (version_dir / "feedface.pkl").write_bytes(b"old")
        stale.append(version_dir)
    capsys.readouterr()

    assert main(["cache", "gc", "--cache-dir", str(tmp_path / "cache")]) == 0
    assert not any(version_dir.exists() for version_dir in stale)
    assert ": 1 results, 1 artifacts" in capsys.readouterr().out

    assert main(["cache", "info", "--cache-dir", str(tmp_path / "cache")]) == 0
    info = capsys.readouterr().out
    assert "results:      3 entries (3 current)" in info
    assert "artifacts:    3 entries (3 current)" in info


def test_run_command_accepts_timings_flag(tmp_path, capsys):
    assert main(["run", "r1", "--days", "1", "--timings",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    captured = capsys.readouterr()
    assert "R1" in captured.out
    assert "[timings:" in captured.err
    assert "[campaigns:" in captured.err


# -- observability: profile / stats / cache hit rates ---------------------------

def test_profile_prints_hot_path_table_and_chrome_trace(tmp_path, capsys):
    from repro.obs import validate_chrome_trace

    chrome = tmp_path / "trace.json"
    code = main(["profile", "t2_usage", "--days", "2", "--top", "5",
                 "--chrome", str(chrome)])
    assert code == 0
    captured = capsys.readouterr()
    assert "event kernel hot paths" in captured.out
    assert "top event types" in captured.out
    assert "top process types" in captured.out
    assert f"[chrome trace written to {chrome}]" in captured.err

    import json
    validate_chrome_trace(json.loads(chrome.read_text()))


def test_profile_unknown_experiment_fails(capsys):
    assert main(["profile", "nonsense"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_stats_renders_the_latest_sidecar(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "report.txt", "--jobs", "1")
    assert code == 0
    capsys.readouterr()
    assert main(["stats", "--runs-dir", str(tmp_path / "runs")]) == 0
    out = capsys.readouterr().out
    assert "sidecar:" in out
    assert "run statistics" in out
    assert "stage wall-clock:" in out
    assert "result cache:" in out
    assert "metrics registry:" in out


def test_stats_without_any_sidecar_fails_cleanly(tmp_path, capsys):
    assert main(["stats", "--runs-dir", str(tmp_path / "nothing")]) == 2
    assert "no telemetry sidecar" in capsys.readouterr().err


def test_cache_stats_surfaces_last_run_hit_rate(tmp_path, capsys):
    code, _ = _run_all(tmp_path, "first.txt", "--jobs", "1")
    assert code == 0
    code, _ = _run_all(tmp_path, "second.txt", "--jobs", "1")
    assert code == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path / "cache"),
                 "--runs-dir", str(tmp_path / "runs")]) == 0
    out = capsys.readouterr().out
    # The second run served everything from the result cache, so the
    # campaign stage never ran and only the hit-rate line appears.
    assert "last run:     3 hits, 0 misses (100.0% hit rate)" in out


def test_run_all_writes_sidecar_next_to_the_journal(tmp_path, capsys):
    from repro.obs import read_sidecar, sidecar_summary

    code, _ = _run_all(tmp_path, "report.txt", "--jobs", "1")
    assert code == 0
    assert "telemetry sidecar written to" in capsys.readouterr().err
    (sidecar,) = (tmp_path / "runs").glob("*/telemetry.jsonl")
    records = read_sidecar(sidecar)
    assert records[0]["run_id"] == sidecar.parent.name
    summary = sidecar_summary(records)
    # 3 campaign-stage pseudo-tasks + 3 measurement tasks.
    assert summary["metrics"]["runner.tasks_completed"] == 6


# -- scenario run, --days, sidecar tie-break, profile --json -------------------

def test_latest_sidecar_mtime_breaks_lexical_ties(tmp_path):
    import argparse
    import os

    from repro.__main__ import _latest_sidecar

    runs = tmp_path / "runs"
    older = runs / "20260101-120000-zzzz"
    newer = runs / "20260101-120000-aaaa"
    for run_dir in (older, newer):
        run_dir.mkdir(parents=True)
        (run_dir / "telemetry.jsonl").write_text("{}\n")
    os.utime(older / "telemetry.jsonl", (1000.0, 1000.0))
    os.utime(newer / "telemetry.jsonl", (2000.0, 2000.0))
    args = argparse.Namespace(runs_dir=str(runs))
    # Newest mtime wins even though its run id sorts lexically first.
    assert _latest_sidecar(args) == newer / "telemetry.jsonl"


def test_latest_sidecar_equal_mtimes_fall_back_to_path_order(tmp_path):
    import argparse
    import os

    from repro.__main__ import _latest_sidecar

    runs = tmp_path / "runs"
    paths = []
    for run_id in ("20260101-120000-bbbb", "20260101-120000-aaaa"):
        run_dir = runs / run_id
        run_dir.mkdir(parents=True)
        sidecar = run_dir / "telemetry.jsonl"
        sidecar.write_text("{}\n")
        os.utime(sidecar, (1500.0, 1500.0))
        paths.append(sidecar)
    args = argparse.Namespace(runs_dir=str(runs))
    # Same second: the lexically last path wins, deterministically.
    assert _latest_sidecar(args) == paths[0]
    assert _latest_sidecar(args) == paths[0]  # stable across calls


def test_run_all_sharded_report_is_byte_identical_to_unsharded(tmp_path):
    """The store-on sweep at ``--jobs 2`` matches the store-off serial one."""
    code, baseline = _run_all(tmp_path, "baseline.txt", "--jobs", "1", "--no-cache")
    assert code == 0
    code, staged = _run_all(tmp_path, "staged.txt", "--jobs", "2")
    assert code == 0
    assert baseline.read_bytes() == staged.read_bytes()


def test_scenario_run_merges_three_cells(tmp_path, capsys):
    """A program three times the canonical population runs as one coupled
    simulation and passes the scenario oracle."""
    program = tmp_path / "three-cells.yaml"
    program.write_text(
        "name: three-cells\ndays: 1.5\nseed: 5\npopulation_scale: 0.15\n"
    )
    assert main(["scenario", "run", str(program)]) == 0
    out = capsys.readouterr().out
    assert "invariants:" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "T1", "--days", "0"],
        ["scenario", "run", "teragrid-baseline", "--days", "0"],
        ["profile", "t2_usage", "--days", "0"],
        ["run", "T1", "--task-timeout", "nan"],
        ["run", "T1", "--task-timeout", "inf"],
    ],
)
def test_nonpositive_or_nonfinite_number_is_a_usage_error(argv, capsys):
    """``--days`` and ``--task-timeout`` are checked at parse time: exit 2
    with a usage message, before any simulation or task attempt."""
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"{flag}: must be a positive number, got {value}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "t2_usage", "--top", "0"],
        ["profile", "t2_usage", "--top", "-1"],
        ["profile", "t2_usage", "--span-cap", "-5"],
    ],
)
def test_profile_count_below_its_floor_is_a_usage_error(argv, capsys):
    """``--top`` must keep a row and ``--span-cap`` must not be negative:
    both are checked at parse time, before anything is profiled."""
    flag, value = argv[-2:]
    floor = 1 if flag == "--top" else 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert f"{flag}: must be >= {floor}, got {value}" in captured.err
    assert captured.out == ""


def test_profile_json_writes_benchmark_payload(tmp_path, capsys):
    import json

    payload_path = tmp_path / "bench.json"
    code = main(["profile", "t2_usage", "--days", "1",
                 "--json", str(payload_path)])
    assert code == 0
    assert f"[profile json written to {payload_path}]" in capsys.readouterr().err
    payload = json.loads(payload_path.read_text())
    assert payload["bench"] == "profile"
    assert payload["experiment"] == "T2"
    assert payload["sim_events"] > 0
    assert payload["events_per_second"] > 0
    assert payload["wall_seconds"] > 0

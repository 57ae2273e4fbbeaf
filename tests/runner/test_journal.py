"""Tests for the persistent run journal and its resume semantics."""

import json

import pytest

from repro.runner.journal import RunJournal, default_runs_dir, new_run_id, task_key


def test_create_makes_run_directory(tmp_path):
    journal = RunJournal.create(tmp_path)
    assert journal.path.parent.is_dir()
    assert journal.path.name == "journal.jsonl"
    assert journal.run_id in str(journal.path)


def test_record_and_read_back(tmp_path):
    with RunJournal.create(tmp_path) as journal:
        journal.record("run-started", jobs=2)
        journal.record("task-started", key="abc", attempt=1)
        journal.record("task-completed", key="abc", attempts=1)
    events = journal.events()
    assert [e["event"] for e in events] == [
        "run-started", "task-started", "task-completed",
    ]
    assert all("time" in e for e in events)


def test_resume_requires_existing_journal(tmp_path):
    with pytest.raises(FileNotFoundError, match="no journal"):
        RunJournal.resume(tmp_path, "nonexistent-run")


def test_resume_finds_prior_run(tmp_path):
    with RunJournal.create(tmp_path) as original:
        original.record("task-completed", key="k1")
    resumed = RunJournal.resume(tmp_path, original.run_id)
    assert resumed.completed_keys() == frozenset({"k1"})


def test_torn_final_line_is_tolerated(tmp_path):
    with RunJournal.create(tmp_path) as journal:
        journal.record("task-completed", key="k1")
        journal.record("task-completed", key="k2")
    # Simulate a SIGKILL mid-append: the last line is half a JSON object.
    with journal.path.open("a", encoding="utf-8") as handle:
        handle.write('{"event":"task-comp')
    assert journal.completed_keys() == frozenset({"k1", "k2"})
    assert len(journal.events()) == 2  # the torn line is dropped, not fatal


def test_completed_keys_ignores_other_events(tmp_path):
    with RunJournal.create(tmp_path) as journal:
        journal.record("run-started")
        journal.record("task-started", key="k1", attempt=1)
        journal.record("task-completed", key="k1")
        journal.record("task-failed", key="k2", kind="exception")
    assert journal.completed_keys() == frozenset({"k1"})


def test_events_are_compact_sorted_json_lines(tmp_path):
    with RunJournal.create(tmp_path) as journal:
        journal.record("run-started", zulu=1, alpha=2)
    (line,) = journal.path.read_text().splitlines()
    parsed = json.loads(line)
    assert list(parsed) == sorted(parsed)  # sort_keys: stable diffs
    assert ": " not in line  # compact separators


def test_run_ids_are_unique_and_sortable():
    first, second = new_run_id(), new_run_id()
    assert first != second
    assert len(first.split("-")) == 3


def test_default_runs_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "custom"))
    assert default_runs_dir() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_RUNS_DIR")
    assert str(default_runs_dir()) == "runs"


# -- task keys -----------------------------------------------------------------

def test_task_key_matches_cache_identity_but_not_code_version():
    a = task_key("R1", {"days": 1.0, "seed": 3}, 3)
    assert a == task_key("R1", {"seed": 3, "days": 1.0}, 3)  # order-free
    assert a != task_key("R1", {"days": 2.0, "seed": 3}, 3)
    assert a != task_key("R2", {"days": 1.0, "seed": 3}, 3)
    assert a != task_key("R1", {"days": 1.0, "seed": 3}, 4)
    assert len(a) == 16

"""Tests for the parallel runner: jobs, planning, caching, fault handling."""

import multiprocessing
import time

import pytest

from repro.experiments.base import (
    ExperimentOutput,
    ExperimentTask,
    merge_tasks,
    plan_tasks,
    plan_timeout,
    register_tasks,
    registry,
)
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RetryPolicy,
    RunJournal,
    resolve_jobs,
)


# -- worker-count resolution ---------------------------------------------------

def test_explicit_jobs_win(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(3) == 3


def test_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5


def test_env_must_be_integer(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs()


def test_default_is_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    import os

    assert resolve_jobs() == max(1, os.cpu_count() or 1)


def test_jobs_clamped_to_one():
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-4) == 1


# -- task planning -------------------------------------------------------------

def test_declared_plans_exist_for_replicate_experiments():
    # Each fans out into several tasks and merges with its own function,
    # not the one-task plan that @register builds.
    for experiment_id in ("R1", "A3", "A4", "A5", "F6"):
        assert len(plan_tasks(experiment_id)) > 1
        assert registry[experiment_id].merge.__module__.startswith(
            "repro.experiments." + experiment_id.lower() + "_"
        )


def test_r1_plans_one_task_per_seed():
    tasks = plan_tasks("R1", days=3.0, seeds=(4, 9))
    assert [task.seed for task in tasks] == [4, 9]
    assert [task.index for task in tasks] == [0, 1]
    assert all(task.experiment_id == "R1" for task in tasks)


def test_undeclared_experiment_gets_single_task_plan():
    (task,) = plan_tasks("T1", days=2.0)
    assert (task.experiment_id, task.index, task.params) == ("T1", 0, {"days": 2.0})


def test_plan_tasks_rejects_unknown_experiment():
    with pytest.raises(KeyError, match="Z9"):
        plan_tasks("Z9")


def test_merge_tasks_default_plan_unwraps_single_partial():
    sentinel = object()
    assert merge_tasks("T1", [sentinel]) is sentinel


def test_tasks_are_picklable():
    import pickle

    task = ExperimentTask("R1", 0, {"days": 1.0, "seed": 3}, 3)
    assert pickle.loads(pickle.dumps(task)) == task


# -- execution + caching -------------------------------------------------------

def test_cached_rerun_recomputes_nothing(tmp_path):
    knobs = dict(days=1.0, seeds=(1, 2))
    first = ParallelRunner(jobs=1, cache=ResultCache(root=tmp_path))
    out_first = first.run("R1", **knobs)
    assert first.cache_stats.misses == 2 and first.cache_stats.writes == 2

    second = ParallelRunner(jobs=1, cache=ResultCache(root=tmp_path))
    out_second = second.run("R1", **knobs)
    assert second.cache_stats.hits == 2 and second.cache_stats.misses == 0
    assert out_second.text == out_first.text
    assert out_second.data == out_first.data


def test_changed_knobs_miss_the_cache(tmp_path):
    runner = ParallelRunner(jobs=1, cache=ResultCache(root=tmp_path))
    runner.run("R1", days=1.0, seeds=(1,))
    runner.run("R1", days=1.0, seeds=(2,))
    assert runner.cache_stats.hits == 0
    assert runner.cache_stats.misses == 2


def test_partial_cache_overlap_only_computes_new_seeds(tmp_path):
    warm = ParallelRunner(jobs=1, cache=ResultCache(root=tmp_path))
    warm.run("R1", days=1.0, seeds=(1, 2))
    extended = ParallelRunner(jobs=1, cache=ResultCache(root=tmp_path))
    extended.run("R1", days=1.0, seeds=(1, 2, 3))
    assert extended.cache_stats.hits == 2
    assert extended.cache_stats.misses == 1


def test_no_cache_mode_touches_no_disk(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never-created"))
    runner = ParallelRunner(jobs=1, use_cache=False)
    runner.run("R1", days=1.0, seeds=(1,))
    assert runner.cache_stats is None
    assert not (tmp_path / "never-created").exists()


def test_run_many_returns_outputs_in_request_order(tmp_path):
    runner = ParallelRunner(jobs=1, cache=ResultCache(root=tmp_path))
    outputs = runner.run_many(
        [
            ("F6", dict(days=1.0, coverages=(0.0, 1.0))),
            ("R1", dict(days=1.0, seeds=(1,))),
        ]
    )
    assert [output.experiment_id for output in outputs] == ["F6", "R1"]


def test_pool_execution_matches_inline(tmp_path):
    knobs = dict(days=1.0, seeds=(1, 2))
    inline = ParallelRunner(jobs=1, use_cache=False).run("R1", **knobs)
    pooled = ParallelRunner(jobs=2, use_cache=False).run("R1", **knobs)
    assert pooled.text == inline.text
    assert pooled.data == inline.data


# -- timeouts and containment --------------------------------------------------

def _px_plan(sleep=0.0, **_knobs):
    return [ExperimentTask("PX", 0, {"seed": 1, "sleep": sleep}, 1)]


def _px_execute(seed, sleep):
    time.sleep(sleep)
    return seed


def _px_merge(partials, **_knobs):
    return ExperimentOutput("PX", "probe", text=str(partials[0]))


def _register_px(timeout=None):
    register_tasks("PX", _px_plan, _px_execute, _px_merge, timeout=timeout)


@pytest.fixture
def px_cleanup():
    yield
    registry.pop("PX", None)


def test_runner_rejects_nonpositive_timeout():
    for timeout in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="task_timeout"):
            ParallelRunner(jobs=1, task_timeout=timeout)


def test_register_tasks_rejects_nonpositive_timeout(px_cleanup):
    with pytest.raises(ValueError, match="timeout must be positive"):
        register_tasks("PX", _px_plan, _px_execute, _px_merge, timeout=-1.0)


def test_plan_timeout_reports_declared_override(px_cleanup):
    _register_px(timeout=120.0)
    assert plan_timeout("PX") == 120.0
    assert plan_timeout("R1") is None


def test_plan_timeout_override_beats_runner_default(px_cleanup):
    _register_px(timeout=30.0)  # generous: the experiment knows its cost
    runner = ParallelRunner(
        jobs=1, use_cache=False, task_timeout=0.05,
        retry=RetryPolicy(max_attempts=1),
    )
    output = runner.run("PX", sleep=0.3)  # would blow the runner default
    assert output.text == "1"
    assert not runner.failures


def test_timeout_exhaustion_becomes_structured_failure(px_cleanup):
    _register_px()
    runner = ParallelRunner(
        jobs=1, use_cache=False, task_timeout=0.1,
        retry=RetryPolicy(max_attempts=2, base_delay=0.01),
    )
    output = runner.run("PX", sleep=30.0)
    assert output.title == "FAILED"
    assert "1 of 1 task(s) failed" in output.text
    (failure,) = runner.failures
    assert failure.kind == "timeout"
    assert failure.attempts == 2
    assert runner.retries == 1
    assert not runner.degraded_tasks  # inline has nowhere safer to go


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the probe experiment by fork",
)
def test_degraded_timeout_is_recorded_not_retried(px_cleanup, monkeypatch):
    # The pool dies once (its worker is killed), so the task's second
    # attempt is degraded with retry budget left; its timeout still ends it.
    _register_px()
    monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
    runner = ParallelRunner(
        jobs=2, use_cache=False, task_timeout=0.1, max_pool_deaths=1,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
    )
    output = runner.run("PX", sleep=30.0)
    assert output.title == "FAILED"
    (failure,) = runner.failures
    assert (failure.kind, failure.attempts) == ("timeout", 2)
    assert len(runner.degraded_tasks) == 1
    assert runner.retries == 1  # the killed pool attempt only


def test_failed_experiment_does_not_abort_the_sweep(px_cleanup, tmp_path):
    _register_px()
    runner = ParallelRunner(
        jobs=1, use_cache=False, task_timeout=0.1,
        retry=RetryPolicy(max_attempts=1),
    )
    broken, healthy = runner.run_many(
        [("PX", dict(sleep=30.0)), ("R1", dict(days=1.0, seeds=(1,)))]
    )
    assert broken.title == "FAILED"
    assert healthy.experiment_id == "R1" and healthy.title != "FAILED"


def test_failures_are_never_cached(px_cleanup, tmp_path):
    _register_px()
    cache = ResultCache(root=tmp_path)
    runner = ParallelRunner(
        jobs=1, cache=cache, task_timeout=0.1,
        retry=RetryPolicy(max_attempts=1),
    )
    runner.run("PX", sleep=30.0)
    assert runner.failures
    assert cache.entries() == []  # a transient outage must not poison reruns


@pytest.mark.parametrize("stop", [KeyboardInterrupt, SystemExit])
def test_stop_requests_escape_an_inline_task(px_cleanup, stop):
    # A pool worker turns every exception into an outcome; in this process
    # the same catch must let Ctrl-C and exit requests through.
    def execute(seed, sleep):
        raise stop()

    register_tasks("PX", _px_plan, execute, _px_merge)
    runner = ParallelRunner(jobs=1, use_cache=False)
    with pytest.raises(stop):
        runner.run("PX")
    assert not runner.failures


class _BrokenSubmitPool:
    """Mimics a ProcessPoolExecutor whose workers died pre-submission."""

    def submit(self, fn, *args):
        raise RuntimeError("pool is broken")

    def shutdown(self, **kwargs):
        pass


def test_submission_to_broken_pool_is_contained(px_cleanup):
    # Regression: a worker dying *during* batch submission makes pool.submit
    # itself raise; that must degrade the batch, not escape the runner.
    from collections import deque

    _register_px()
    runner = ParallelRunner(
        jobs=2, use_cache=False, retry=RetryPolicy(max_attempts=1)
    )
    (task,) = plan_tasks("PX")
    sink = {}
    requeue = runner._run_round(_BrokenSubmitPool(), deque([(0, task, 1)]), sink)
    assert runner._pool_broken
    assert requeue == []  # max_attempts=1: degraded inline instead
    assert sink[0] == 1  # the task's actual result, computed in-process
    assert len(runner.degraded_tasks) == 1


# -- journal integration -------------------------------------------------------

def test_runner_journals_starts_and_completions(px_cleanup, tmp_path):
    _register_px()
    journal = RunJournal.create(tmp_path / "runs")
    runner = ParallelRunner(jobs=1, use_cache=False, journal=journal)
    runner.run("PX")
    journal.close()
    events = [e["event"] for e in journal.events()]
    assert events == ["task-started", "task-completed"]
    assert journal.completed_keys()


def test_resume_skips_journaled_completions_via_cache(px_cleanup, tmp_path):
    _register_px()
    cache_root = tmp_path / "cache"
    first_journal = RunJournal.create(tmp_path / "runs")
    first = ParallelRunner(
        jobs=1, cache=ResultCache(root=cache_root), journal=first_journal
    )
    first.run("PX")
    first_journal.close()

    resumed_journal = RunJournal.resume(tmp_path / "runs", first_journal.run_id)
    second = ParallelRunner(
        jobs=1,
        cache=ResultCache(root=cache_root),
        journal=resumed_journal,
        resume_keys=resumed_journal.completed_keys(),
    )
    second.run("PX")
    resumed_journal.close()
    assert second.resume_skipped == 1
    assert second.cache_stats.hits == 1 and second.cache_stats.misses == 0

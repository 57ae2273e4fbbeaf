"""Tests for the runner's two-stage DAG: campaign stage + measurement stage.

The acceptance contract: with an artifact store attached, a sweep simulates
each distinct campaign key exactly once (asserted via the dedup counters)
and its merged outputs are byte-identical to a store-disabled serial run —
including when artifacts already exist (resume) and when the chaos harness
corrupts them (quarantine -> live fallback).
"""

import dataclasses
from concurrent.futures import Future

import pytest

from repro.experiments import base
from repro.experiments.base import (
    CAMPAIGN_STAGE_ID,
    _campaign_cache,
    campaign,
    execute_task,
    plan_tasks,
    task_campaign_keys,
)
from repro.runner import ArtifactStore, ParallelRunner, ResultCache, parallel
from repro.workloads.synthetic import CampaignKey


@pytest.fixture(autouse=True)
def fresh_campaign_memo():
    """Isolate the process-global campaign memo.

    The dedup counters distinguish "simulated" from "served by the memo";
    leftovers from other tests (inherited by fork-started workers too)
    would make those counts nondeterministic.
    """
    saved = dict(_campaign_cache)
    _campaign_cache.clear()
    yield
    _campaign_cache.clear()
    _campaign_cache.update(saved)

#: T1/T2/T3 at one horizon: twelve measurement tasks, ONE distinct campaign.
_SHARED = [("T1", {"days": 12.0}), ("T2", {"days": 12.0}), ("T3", {"days": 12.0})]


def _texts(outputs):
    return [(o.experiment_id, o.title, o.text, repr(o.data)) for o in outputs]


@pytest.fixture(scope="module")
def reference():
    """Store-off serial outputs: the byte-identity baseline."""
    runner = ParallelRunner(jobs=1, use_cache=False)
    return _texts(runner.run_many(_SHARED))


# -- campaign dependency declarations ------------------------------------------

#: Every campaign reader at small knobs, plus the knobs that move a key in
#: less obvious ways: a non-key knob (T5), a reader's own defaults (F1),
#: per-task seeds (R1) and per-task coverages (F6).
_READERS = [
    *(
        (experiment_id, {"days": 2.0})
        for experiment_id in (
            "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F2", "F9",
        )
    ),
    ("T5", {"days": 2.0, "survey_seed": 7}),
    ("F1", {}),
    ("R1", {"days": 2.0, "seeds": (1, 2)}),
    ("F6", {"days": 2.0, "coverages": (0.0, 1.0)}),
]


def test_every_campaign_reader_declares_its_campaigns(monkeypatch):
    """Each task reads exactly the campaign stage 1 plans for it.

    ``_resolve`` is replaced by a recorder that serves one small campaign
    under whatever key it is asked for, so every reader runs its real body
    (F1 at its year-long defaults too) without simulating that campaign.
    """
    small = campaign(days=1.0, population_scale=0.02)
    read = []

    def recording(key, expected=False):
        read.append(key)
        return dataclasses.replace(small, key=key), False

    monkeypatch.setattr(base, "_resolve", recording)
    for experiment_id, knobs in _READERS:
        for task in plan_tasks(experiment_id, **knobs):
            read.clear()
            execute_task(task)
            declared = task_campaign_keys(task)
            assert len(declared) == 1, (experiment_id, task.params)
            assert read == list(declared), (experiment_id, task.params)

    (f1,) = plan_tasks("F1")
    assert task_campaign_keys(f1) == (
        CampaignKey.make(
            days=364.0, population_scale=0.03, gateway_adoption_ramp_days=270.0
        ),
    )
    # A reader's non-key knob reaches its body, not the key.
    (t5,) = plan_tasks("T5", days=2.0, survey_seed=7)
    assert task_campaign_keys(t5) == (CampaignKey.make(days=2.0),)

    # A self-contained experiment declares and reads no campaign.
    (f3,) = plan_tasks("F3", days=0.5)
    read.clear()
    execute_task(f3)
    assert task_campaign_keys(f3) == ()
    assert read == []


def test_shared_horizon_collapses_to_one_key():
    keys = set()
    for experiment_id, knobs in _SHARED:
        for task in plan_tasks(experiment_id, **knobs):
            keys.update(task_campaign_keys(task))
    assert len(keys) == 1


def test_int_and_float_spellings_share_a_key():
    (int_key,) = task_campaign_keys(plan_tasks("T1", days=12)[0])
    (float_key,) = task_campaign_keys(plan_tasks("T1", days=12.0)[0])
    assert int_key == float_key


def test_f6_declares_one_campaign_per_coverage():
    tasks = plan_tasks("F6", days=4.0, coverages=(0.0, 1.0))
    keys = [task_campaign_keys(task) for task in tasks]
    assert all(len(k) == 1 for k in keys)
    assert keys[0] != keys[1]


def test_r1_declares_one_campaign_per_seed():
    tasks = plan_tasks("R1", days=4.0, seeds=(1, 2))
    assert task_campaign_keys(tasks[0])[0].seed == 1
    assert task_campaign_keys(tasks[1])[0].seed == 2


# -- dedup + byte-identity (the acceptance tests) ------------------------------

def test_serial_store_simulates_each_key_once(tmp_path, reference):
    runner = ParallelRunner(
        jobs=1, use_cache=False, artifacts=ArtifactStore(root=tmp_path)
    )
    outputs = runner.run_many(_SHARED)
    assert runner.campaign_stats["distinct"] == 1
    assert runner.campaign_stats["simulated"] == 1
    assert runner.campaign_stats["fallbacks"] == 0
    assert runner.campaign_failures == []
    assert _texts(outputs) == reference


def test_parallel_store_simulates_each_key_once(tmp_path, reference):
    runner = ParallelRunner(
        jobs=2, use_cache=False, artifacts=ArtifactStore(root=tmp_path)
    )
    outputs = runner.run_many(_SHARED)
    assert runner.campaign_stats["distinct"] == 1
    assert runner.campaign_stats["simulated"] == 1
    assert runner.campaign_stats["fallbacks"] == 0
    assert runner.campaign_stats["loads"] >= 1  # measured from the artifact
    assert _texts(outputs) == reference


class _InlinePool:
    """Stands in for the process pool: runs each submitted spec at once."""

    made: list["_InlinePool"] = []

    def __init__(self, max_workers):
        self.specs = []
        _InlinePool.made.append(self)

    def submit(self, fn, spec):
        self.specs.append(spec)
        future = Future()
        future.set_result(fn(spec))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_pool_tasks_release_a_campaign_after_its_last_reader(
    tmp_path, reference, monkeypatch
):
    """Only the last measurement task reading a campaign releases it."""
    _InlinePool.made.clear()
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _InlinePool)
    runner = ParallelRunner(
        jobs=2, use_cache=False, artifacts=ArtifactStore(root=tmp_path)
    )
    assert _texts(runner.run_many(_SHARED)) == reference
    specs = [
        spec
        for pool in _InlinePool.made
        for spec in pool.specs
        if spec.task.experiment_id != CAMPAIGN_STAGE_ID
    ]
    (key,) = {key for spec in specs for key in task_campaign_keys(spec.task)}
    assert [spec.release for spec in specs] == [()] * (len(specs) - 1) + [(key,)]
    assert key not in _campaign_cache


def test_inline_tasks_release_no_campaign(tmp_path, reference):
    """The driver's memo is its caller's: an inline run keeps what it read."""
    runner = ParallelRunner(
        jobs=1, use_cache=False, artifacts=ArtifactStore(root=tmp_path)
    )
    assert _texts(runner.run_many(_SHARED)) == reference
    (key,) = {key for task in plan_tasks("T1", days=12.0)
              for key in task_campaign_keys(task)}
    assert key in _campaign_cache


def test_existing_artifacts_are_reused_not_resimulated(tmp_path, reference):
    store_dir = tmp_path / "store"
    first = ParallelRunner(
        jobs=1, use_cache=False, artifacts=ArtifactStore(root=store_dir)
    )
    first.run_many(_SHARED)

    second = ParallelRunner(
        jobs=1, use_cache=False, artifacts=ArtifactStore(root=store_dir)
    )
    outputs = second.run_many(_SHARED)
    assert second.campaign_stats["simulated"] == 0
    assert second.campaign_stats["reused"] == 1
    assert _texts(outputs) == reference


def test_partial_store_resumes_mid_campaign_stage(tmp_path):
    """A run killed mid-stage leaves some artifacts; the next run completes
    only the missing ones (that is resume for stage 1)."""
    store_dir = tmp_path / "store"
    warmup = ParallelRunner(
        jobs=1, use_cache=False, artifacts=ArtifactStore(root=store_dir)
    )
    warmup.run_many([("R1", {"days": 4.0, "seeds": (1,)})])
    assert warmup.campaign_stats["simulated"] == 1

    resumed = ParallelRunner(
        jobs=1, use_cache=False, artifacts=ArtifactStore(root=store_dir)
    )
    resumed.run_many([("R1", {"days": 4.0, "seeds": (1, 2, 3)})])
    assert resumed.campaign_stats["distinct"] == 3
    assert resumed.campaign_stats["reused"] == 1
    assert resumed.campaign_stats["simulated"] == 2


def test_stage_timings_are_recorded(tmp_path):
    runner = ParallelRunner(
        jobs=1, use_cache=False, artifacts=ArtifactStore(root=tmp_path)
    )
    runner.run_many([("T1", {"days": 8.0})])
    assert set(runner.stage_seconds) == {"plan", "campaign", "measure"}
    assert runner.stage_seconds["campaign"] > 0


def test_no_store_means_no_campaign_stage():
    runner = ParallelRunner(jobs=1, use_cache=False)
    runner.run_many([("T1", {"days": 8.0})])
    assert "campaign" not in runner.stage_seconds
    assert runner.campaign_stats["distinct"] == 0


# -- store + result cache interaction ------------------------------------------

def test_campaign_tasks_never_enter_the_result_cache(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    runner = ParallelRunner(
        jobs=1, cache=cache, artifacts=ArtifactStore(root=tmp_path / "store")
    )
    runner.run_many([("R1", {"days": 4.0, "seeds": (1, 2)})])
    # Exactly the two measurement tasks were cached; the campaign
    # pseudo-tasks persist through the artifact store instead.
    assert len(cache.entries()) == 2
    hit, _ = cache.get(
        CAMPAIGN_STAGE_ID,
        {CAMPAIGN_STAGE_ID: CampaignKey.make(days=4.0, seed=1).asdict()},
        1,
    )
    assert not hit


def test_cached_measurements_skip_the_campaign_stage_entirely(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    store = ArtifactStore(root=tmp_path / "store")
    ParallelRunner(jobs=1, cache=cache, artifacts=store).run_many(
        [("T1", {"days": 8.0})]
    )
    rerun = ParallelRunner(
        jobs=1, cache=ResultCache(root=tmp_path / "cache"),
        artifacts=ArtifactStore(root=tmp_path / "store"),
    )
    rerun.run_many([("T1", {"days": 8.0})])
    # All measurements came from the result cache: nothing was pending, so
    # no campaign stage ran at all.
    assert rerun.campaign_stats["distinct"] == 0
    assert "campaign" not in rerun.stage_seconds


# -- chaos: artifact corruption must not change bytes --------------------------

def test_corrupted_artifacts_fall_back_to_live_simulation(
    tmp_path, monkeypatch, reference
):
    monkeypatch.setenv("REPRO_CHAOS", "corrupt:1.0")
    runner = ParallelRunner(
        jobs=2, use_cache=False, artifacts=ArtifactStore(root=tmp_path)
    )
    outputs = runner.run_many(_SHARED)
    # Every artifact write was corrupted: stage 2 quarantines on load and
    # re-simulates live in the worker — slower, byte-identical.
    assert _texts(outputs) == reference
    assert runner.campaign_stats["fallbacks"] >= 1
    assert runner.failures == []

"""Tests for the sharded campaign stage: expansion, reuse, mode-tagged cache.

The runner-level acceptance contract of the scale tier: ``shards=N`` expands
each missing campaign into per-cell stage-1 tasks, the measurement stage
consumes the merged artifact unchanged, and the outputs are byte-identical
to the legacy unsharded run — at the canonical scale literally (one cell IS
the legacy simulation), at larger scales because reports are id-invariant.
"""

import pytest

from repro.experiments.base import _campaign_cache, campaign_key
from repro.runner import ArtifactStore, ParallelRunner, ResultCache
from repro.workloads.sharding import CellKey, cell_count


@pytest.fixture(autouse=True)
def fresh_campaign_memo():
    saved = dict(_campaign_cache)
    _campaign_cache.clear()
    yield
    _campaign_cache.clear()
    _campaign_cache.update(saved)


#: Canonical-scale sweep: two readers of ONE campaign (and one cell).
_CANONICAL = [("T1", {"days": 6.0}), ("T2", {"days": 6.0})]

#: One multi-cell campaign: R1 exposes the population_scale knob.
_MULTI = [("R1", {"days": 2.0, "seeds": (3,), "population_scale": 0.15})]


def _texts(outputs):
    return [(o.experiment_id, o.title, o.text, repr(o.data)) for o in outputs]


def test_sharded_canonical_sweep_is_byte_identical_to_legacy(tmp_path):
    legacy = ParallelRunner(jobs=1, use_cache=False)
    reference = _texts(legacy.run_many(_CANONICAL))

    _campaign_cache.clear()
    sharded = ParallelRunner(
        jobs=2, use_cache=False,
        artifacts=ArtifactStore(root=tmp_path), shards=4,
    )
    outputs = sharded.run_many(_CANONICAL)
    assert _texts(outputs) == reference
    assert sharded.campaign_stats["distinct"] == 1
    assert sharded.campaign_stats["simulated"] == 1
    assert sharded.campaign_failures == []


def test_sharded_stage_stores_one_artifact_per_cell(tmp_path):
    store = ArtifactStore(root=tmp_path)
    runner = ParallelRunner(
        jobs=1, use_cache=False, artifacts=store, shards=2
    )
    runner.run_many(_MULTI)
    key = campaign_key(days=2.0, seed=3, population_scale=0.15)
    cells = cell_count(key.population_scale)
    assert cells == 3
    for cell in range(cells):
        assert store.has(CellKey.for_cell(key, cell, cells))
    # The merged artifact is recomputed on demand, never persisted.
    assert not store.has(key)


def test_sharded_multi_cell_outputs_are_jobs_invariant(tmp_path):
    """Multi-cell campaigns differ physically from the coupled legacy run
    (cells decouple contention — that is the point of the tier), so the
    guarantee here is invariance over execution arrangement: any ``--jobs``
    produces the same bytes for the same shard mode."""
    serial = ParallelRunner(
        jobs=1, use_cache=False,
        artifacts=ArtifactStore(root=tmp_path / "serial"), shards=3,
    )
    reference = _texts(serial.run_many(_MULTI))

    _campaign_cache.clear()
    parallel = ParallelRunner(
        jobs=2, use_cache=False,
        artifacts=ArtifactStore(root=tmp_path / "parallel"), shards=3,
    )
    outputs = parallel.run_many(_MULTI)
    assert _texts(outputs) == reference
    assert parallel.campaign_stats["distinct"] == 1
    assert parallel.campaign_stats["simulated"] == 1


def test_sharded_resume_reuses_stored_cells(tmp_path):
    first = ParallelRunner(
        jobs=1, use_cache=False,
        artifacts=ArtifactStore(root=tmp_path), shards=2,
    )
    reference = _texts(first.run_many(_MULTI))

    _campaign_cache.clear()
    second = ParallelRunner(
        jobs=1, use_cache=False,
        artifacts=ArtifactStore(root=tmp_path), shards=2,
    )
    outputs = second.run_many(_MULTI)
    assert _texts(outputs) == reference
    assert second.campaign_stats["simulated"] == 0
    assert second.campaign_stats["reused"] == 1


def test_shard_count_does_not_change_runner_outputs(tmp_path):
    a = ParallelRunner(
        jobs=1, use_cache=False,
        artifacts=ArtifactStore(root=tmp_path / "a"), shards=1,
    )
    texts_a = _texts(a.run_many(_MULTI))

    _campaign_cache.clear()
    b = ParallelRunner(
        jobs=2, use_cache=False,
        artifacts=ArtifactStore(root=tmp_path / "b"), shards=3,
    )
    assert _texts(b.run_many(_MULTI)) == texts_a


def test_sharded_and_legacy_results_never_share_cache_entries(tmp_path):
    """Sharded task results are mode-tagged: a legacy rerun over the same
    cache must miss (multi-cell ids differ between modes)."""
    cache_root = tmp_path / "cache"
    sharded = ParallelRunner(
        jobs=1, cache=ResultCache(root=cache_root),
        artifacts=ArtifactStore(root=tmp_path / "store"), shards=2,
    )
    sharded.run_many(_MULTI)
    assert sharded.cache.stats.misses == 1
    assert sharded.cache.stats.hits == 0

    _campaign_cache.clear()
    legacy = ParallelRunner(jobs=1, cache=ResultCache(root=cache_root))
    legacy.run_many(_MULTI)
    assert legacy.cache.stats.hits == 0
    assert legacy.cache.stats.misses == 1

    # Same mode, same cache: now it hits.
    _campaign_cache.clear()
    rerun = ParallelRunner(
        jobs=1, cache=ResultCache(root=cache_root),
        artifacts=ArtifactStore(root=tmp_path / "store"), shards=2,
    )
    rerun.run_many(_MULTI)
    assert rerun.cache.stats.hits == 1


def test_storeless_sharded_run_counts_no_fallbacks():
    """Without a store every cell simulates by design: none is a fallback."""
    runner = ParallelRunner(jobs=1, use_cache=False, shards=2)
    runner.run_many(_MULTI)
    assert runner.campaign_stats["fallbacks"] == 0


def test_shards_flag_validation():
    with pytest.raises(ValueError):
        ParallelRunner(jobs=1, shards=0)

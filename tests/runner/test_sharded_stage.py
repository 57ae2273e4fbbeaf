"""Tests for the campaign stage on campaigns above the canonical population.

The multi-cell model would split such a campaign into cells (R1 at
population scale 0.15 is three); the runner does not.  It simulates every
campaign coupled, exactly once, into one artifact under its
:class:`CampaignKey`, so a sweep's bytes are the same at any ``--jobs`` and
with the store on or off.  Cells exist only behind ``repro scenario run``.
"""

import pytest

from repro.__main__ import main
from repro.experiments.base import _campaign_cache, campaign_key
from repro.runner import ArtifactStore, ParallelRunner
from repro.workloads.sharding import CELL_ID_STRIDE, cell_count


@pytest.fixture(autouse=True)
def fresh_campaign_memo():
    saved = dict(_campaign_cache)
    _campaign_cache.clear()
    yield
    _campaign_cache.clear()
    _campaign_cache.update(saved)


#: Canonical-scale sweep: two readers of ONE campaign.
_CANONICAL = [("T1", {"days": 6.0}), ("T2", {"days": 6.0})]

#: One campaign of three cells' population: R1 exposes population_scale.
_MULTI = [("R1", {"days": 2.0, "seeds": (3,), "population_scale": 0.15})]


def _texts(outputs):
    return [(o.experiment_id, o.title, o.text, repr(o.data)) for o in outputs]


def test_sharded_canonical_sweep_is_byte_identical_to_legacy(tmp_path):
    """The two-stage sweep at ``jobs=2`` equals the store-less serial run."""
    legacy = ParallelRunner(jobs=1, use_cache=False)
    reference = _texts(legacy.run_many(_CANONICAL))

    _campaign_cache.clear()
    staged = ParallelRunner(
        jobs=2, use_cache=False, artifacts=ArtifactStore(root=tmp_path)
    )
    outputs = staged.run_many(_CANONICAL)
    assert _texts(outputs) == reference
    assert staged.campaign_stats["distinct"] == 1
    assert staged.campaign_stats["simulated"] == 1
    assert staged.campaign_failures == []


def test_sharded_stage_stores_one_artifact_per_cell(tmp_path):
    """The runner's stage-1 cell is the whole campaign: a population the
    model would cut into three cells is stored as one coupled artifact under
    the campaign's key, with no per-cell entries and no cell-renumbered ids."""
    store = ArtifactStore(root=tmp_path)
    runner = ParallelRunner(jobs=1, use_cache=False, artifacts=store)
    runner.run_many(_MULTI)
    key = campaign_key(days=2.0, seed=3, population_scale=0.15)
    assert cell_count(key.population_scale) == 3
    assert len(store.entries()) == 1
    artifact = ArtifactStore(root=tmp_path).load(key)
    assert artifact is not None
    assert artifact.key == key
    assert artifact.records
    # A merge would have moved cells 1 and 2 into [c * stride, ...).
    assert all(r.job_id < CELL_ID_STRIDE for r in artifact.records)


def test_sharded_multi_cell_outputs_are_jobs_invariant(tmp_path):
    """A three-cell-sized campaign runs coupled: ``jobs=1`` and ``jobs=2``
    give the same bytes, and stage 1 stores exactly one artifact, under the
    campaign's own key."""
    serial_store = ArtifactStore(root=tmp_path / "serial")
    serial = ParallelRunner(jobs=1, use_cache=False, artifacts=serial_store)
    reference = _texts(serial.run_many(_MULTI))
    key = campaign_key(days=2.0, seed=3, population_scale=0.15)
    assert serial_store.has(key)
    assert len(serial_store.entries()) == 1

    _campaign_cache.clear()
    parallel = ParallelRunner(
        jobs=2, use_cache=False,
        artifacts=ArtifactStore(root=tmp_path / "parallel"),
    )
    outputs = parallel.run_many(_MULTI)
    assert _texts(outputs) == reference
    assert parallel.campaign_stats["distinct"] == 1
    assert parallel.campaign_stats["simulated"] == 1


def test_sharded_resume_reuses_stored_cells(tmp_path):
    """A second runner on the same store simulates nothing."""
    first = ParallelRunner(
        jobs=1, use_cache=False, artifacts=ArtifactStore(root=tmp_path)
    )
    reference = _texts(first.run_many(_MULTI))

    _campaign_cache.clear()
    second = ParallelRunner(
        jobs=1, use_cache=False, artifacts=ArtifactStore(root=tmp_path)
    )
    outputs = second.run_many(_MULTI)
    assert _texts(outputs) == reference
    assert second.campaign_stats["simulated"] == 0
    assert second.campaign_stats["reused"] == 1


def test_storeless_sharded_run_counts_no_fallbacks():
    """Without a store every campaign simulates by design: none is a fallback."""
    runner = ParallelRunner(jobs=1, use_cache=False)
    runner.run_many(_MULTI)
    assert runner.campaign_stats["fallbacks"] == 0


def test_shards_flag_validation():
    """Only ``scenario run`` takes ``--shards``, and only a positive count."""
    for argv in (["run-all", "--shards", "2"], ["run", "R1", "--shards", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert main(["scenario", "run", "teragrid-baseline", "--shards", "0"]) == 2

"""Tests for the multi-cell model: cells, scoped counters, merge, determinism.

The acceptance contract of the multi-cell path: cell decomposition is a
pure function of the population, cell simulations are isolated from
process history, the merge is deterministic, and — the headline property —
the merged artifact is byte-identical at any shard count, collapsing to the
literal coupled bytes at the canonical population scale.
"""

import pickle
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.modalities import Modality
from repro.experiments import base
from repro.infra.accounting import UsageRecord
from repro.infra.job import AttributeKeys, JobState
from repro.runner import ArtifactStore
from repro.runner.artifacts import activated_store
from repro.scenarios import check_merged_artifact
from repro.scenarios.strategies import scenario_programs
from repro.sim.rng import RandomStreams
from repro.users.population import PopulationSpec, build_population, cell_members
from repro.workloads import sharding
from repro.workloads.sharding import (
    CELL_ID_STRIDE,
    CELL_SCALE,
    cell_count,
    merge_cell_artifacts,
    run_scenario_sharded,
    scoped_id_counters,
)
from repro.workloads.synthetic import (
    CampaignArtifact,
    CampaignKey,
    ScenarioConfig,
    run_scenario,
)


# -- cell decomposition --------------------------------------------------------

def test_canonical_scale_is_one_cell():
    assert cell_count(CELL_SCALE) == 1
    assert cell_count(PopulationSpec(scale=CELL_SCALE)) == 1


def test_cell_count_scales_with_population():
    assert cell_count(0.2) == 4
    assert cell_count(0.5) == 10


def test_cell_count_is_never_zero():
    assert cell_count(0.001) == 1


def _tiny_population(scale=0.1):
    from repro import infra

    sim_ledger = infra.AllocationLedger()
    central = infra.CentralAccountingDB()
    from repro.sim import Simulator

    sim = Simulator()
    providers = [
        infra.ResourceProvider(
            sim, infra.Cluster("big", nodes=16, cores_per_node=8),
            sim_ledger, central,
        )
    ]
    return build_population(
        PopulationSpec(scale=scale),
        RandomStreams(seed=3).stream("population"),
        providers,
        sim_ledger,
    )


def test_cell_members_partition_the_population():
    population = _tiny_population(scale=0.1)
    cells = 3
    members = [cell_members(population, c, cells) for c in range(cells)]
    union = set().union(*members)
    assert union == set(range(len(population.users)))
    assert sum(len(m) for m in members) == len(population.users)


def test_cell_members_rejects_bad_cell():
    population = _tiny_population(scale=CELL_SCALE)
    with pytest.raises(ValueError):
        cell_members(population, 2, 2)


# -- the config each cell simulates --------------------------------------------

class _Simulated(Exception):
    """Carries the config :func:`simulate_cell_config` handed to the kernel."""


def _cell_config(monkeypatch, cell, cells):
    def capture(config):
        raise _Simulated(config)

    monkeypatch.setattr(sharding, "run_scenario", capture)
    config = ScenarioConfig(
        days=4.0, seed=11, population=PopulationSpec(scale=0.2)
    )
    with pytest.raises(_Simulated) as simulated:
        sharding.simulate_cell_config(config, cell, cells)
    return simulated.value.args[0]


def test_cell_key_rejects_out_of_range_cell():
    """A ``(cell, cells)`` pair outside ``[0, cells)`` never simulates."""
    config = ScenarioConfig(days=4.0, seed=11)
    with pytest.raises(ValueError, match="shard"):
        sharding.simulate_cell_config(config, 4, 4)


def test_single_cell_config_has_no_shard_filter(monkeypatch):
    assert _cell_config(monkeypatch, 0, 1).shard is None


def test_multi_cell_config_carries_its_shard(monkeypatch):
    assert _cell_config(monkeypatch, 2, 4).shard == (2, 4)


# -- scoped id counters --------------------------------------------------------

def test_scoped_id_counters_restart_and_restore():
    import repro.infra.job as job_mod

    before = next(job_mod._job_ids)
    with scoped_id_counters():
        assert next(job_mod._job_ids) == 1
        assert next(job_mod._job_ids) == 2
    assert next(job_mod._job_ids) == before + 1


def test_scoped_id_counters_restore_on_error():
    import repro.users.behavior as behavior_mod

    before = next(behavior_mod._ensemble_ids)
    with pytest.raises(RuntimeError):
        with scoped_id_counters():
            raise RuntimeError("boom")
    assert next(behavior_mod._ensemble_ids) == before + 1


# -- the deterministic merge ---------------------------------------------------

def _record(job_id, end_time, attributes=None, charged=1.0):
    return UsageRecord(
        job_id=job_id,
        user="u",
        account="a",
        resource="r",
        queue_name="normal",
        cores=4,
        requested_walltime=100.0,
        submit_time=0.0,
        start_time=1.0,
        end_time=end_time,
        final_state=JobState.COMPLETED,
        charged_nu=charged,
        attributes=dict(attributes or {}),
    )


def _artifact(records, total_nu, snapshot=None):
    return CampaignArtifact(
        key=None,
        records=records,
        job_truth={r.job_id: Modality.BATCH for r in records},
        identity_truth={"id0": Modality.BATCH},
        active_identities=frozenset({"id0"}),
        community_accounts=frozenset({"acct"}),
        total_nu=total_nu,
        transfers=(),
        metric_snapshot=dict(snapshot or {}),
    )


def test_merge_renumbers_into_cell_namespaces():
    a = _artifact([_record(1, 10.0), _record(2, 5.0)], total_nu=2.0)
    b = _artifact([_record(1, 7.0)], total_nu=1.0)
    merged = merge_cell_artifacts(None, [a, b])
    assert [r.job_id for r in merged.records] == [2, CELL_ID_STRIDE + 1, 1]
    assert set(merged.job_truth) == {1, 2, CELL_ID_STRIDE + 1}
    assert merged.total_nu == 3.0


def test_merge_orders_by_sim_time_then_shard_ordinal():
    # An end-time tie between cells resolves by job id, i.e. shard ordinal
    # (cell 0's ids sort below cell 1's strided ids).
    a = _artifact([_record(5, 10.0)], total_nu=1.0)
    b = _artifact([_record(3, 10.0)], total_nu=1.0)
    merged = merge_cell_artifacts(None, [a, b])
    assert [r.job_id for r in merged.records] == [5, CELL_ID_STRIDE + 3]


def test_merge_renumbers_counter_attributes():
    a = _artifact(
        [_record(1, 2.0, {AttributeKeys.WORKFLOW_ID: "wf-1"})], total_nu=1.0
    )
    b = _artifact(
        [
            _record(
                1,
                3.0,
                {AttributeKeys.WORKFLOW_ID: "wf-1", AttributeKeys.ENSEMBLE_ID: 7},
            )
        ],
        total_nu=1.0,
    )
    merged = merge_cell_artifacts(None, [a, b])
    by_job = {r.job_id: r.attributes for r in merged.records}
    # Every cell gets a prefix (cell 0 included), so equal local values
    # from different cells can never collide in the merged stream.
    assert by_job[1][AttributeKeys.WORKFLOW_ID] == "c0:wf-1"
    assert by_job[CELL_ID_STRIDE + 1][AttributeKeys.WORKFLOW_ID] == "c1:wf-1"
    assert by_job[CELL_ID_STRIDE + 1][AttributeKeys.ENSEMBLE_ID] == CELL_ID_STRIDE + 7


def test_merge_rejects_job_id_overflowing_its_cell():
    a = _artifact([_record(1, 1.0)], total_nu=1.0)
    b = _artifact([_record(CELL_ID_STRIDE, 1.0)], total_nu=1.0)
    with pytest.raises(ValueError, match="stride"):
        merge_cell_artifacts(None, [a, b])


def test_merge_combines_metric_snapshots():
    a = _artifact(
        [_record(1, 1.0)],
        total_nu=1.0,
        snapshot={
            "jobs": 3,
            "queue": {"value": 2, "high_water": 5},
            "wait": {"count": 2, "total": 10.0, "min": 1.0, "max": 9.0},
        },
    )
    b = _artifact(
        [_record(1, 2.0)],
        total_nu=1.0,
        snapshot={
            "jobs": 4,
            "queue": {"value": 1, "high_water": 7},
            "wait": {"count": 0, "total": 0.0, "min": float("inf"), "max": 0.0},
        },
    )
    merged = merge_cell_artifacts(None, [a, b])
    assert merged.metric_snapshot["jobs"] == 7
    assert merged.metric_snapshot["queue"] == {"value": 3, "high_water": 7}
    # The empty cell histogram must not poison min/max.
    assert merged.metric_snapshot["wait"] == {
        "count": 2, "total": 10.0, "min": 1.0, "max": 9.0,
    }


def test_single_cell_merge_stamps_the_campaign_key():
    key = CampaignKey.make(days=2.0, seed=1)
    artifact = _artifact([_record(1, 1.0)], total_nu=1.0)
    merged = merge_cell_artifacts(key, [artifact])
    assert merged.key == key
    assert merged.records is artifact.records


def test_merge_requires_at_least_one_artifact():
    with pytest.raises(ValueError):
        merge_cell_artifacts(None, [])


# -- end-to-end determinism (the headline properties) --------------------------

def _merged_bytes(config, shards):
    return pickle.dumps(run_scenario_sharded(config, shards=shards))


def test_canonical_scale_sharded_equals_legacy_bytes():
    """K == 1 cell: the sharded path IS the legacy path, byte for byte."""
    config = ScenarioConfig(
        days=2.0, seed=7, population=PopulationSpec(scale=CELL_SCALE)
    )
    with scoped_id_counters():
        legacy = CampaignArtifact.from_result(run_scenario(config))
    assert pickle.dumps(legacy) == _merged_bytes(config, shards=4)


def test_shard_count_never_changes_the_merged_bytes():
    """3 cells visited in different orders (shards=1: 0,1,2; shards=2:
    0,2,1) must produce identical artifacts — cell isolation in action."""
    config = ScenarioConfig(
        days=1.5, seed=5, population=PopulationSpec(scale=0.15)
    )
    assert cell_count(config.population) == 3
    reference = _merged_bytes(config, shards=1)
    assert reference == _merged_bytes(config, shards=2)
    assert reference == _merged_bytes(config, shards=4)


def test_merged_artifact_satisfies_the_oracle():
    config = ScenarioConfig(
        days=1.5, seed=5, population=PopulationSpec(scale=0.15)
    )
    report = check_merged_artifact(run_scenario_sharded(config, shards=2))
    assert report.ok, report.summary()


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(program=scenario_programs(), scale=st.sampled_from([CELL_SCALE, 0.15]))
def test_random_programs_are_shard_invariant(program, scale):
    """Property: for random scenario programs, shards=1 and shards=4 merge
    to byte-identical artifacts (and thus identical derived reports)."""
    from repro.scenarios import FederationDef

    # Scale-based populations submit canonical-sized jobs, so swap the
    # drawn micro-federation for the standard preset they are sized for;
    # outages, faults, load shape, scheduling etc. stay random.
    program = replace(
        program,
        federation=FederationDef(preset="small", sites=None),
        mix=None,
        population_scale=scale,
    )
    config = program.compile(days=1.5)
    one = run_scenario_sharded(config, shards=1)
    four = run_scenario_sharded(config, shards=4)
    assert pickle.dumps(one) == pickle.dumps(four)
    assert check_merged_artifact(four).ok


# -- store-backed resolution ---------------------------------------------------

def test_resolve_sharded_campaign_saves_and_reuses_cells(tmp_path, monkeypatch):
    """A three-cell-sized campaign resolves coupled through the store: the
    first resolution saves one artifact under the campaign key, and a fresh
    store on the same root serves an equal one back without simulating."""
    key = CampaignKey.make(days=1.5, seed=3, population_scale=0.15)
    assert cell_count(key.population_scale) == 3
    monkeypatch.setattr(base, "_campaign_cache", {})
    with activated_store(ArtifactStore(root=tmp_path)):
        first = base.campaign(**key.asdict())
    assert len(ArtifactStore(root=tmp_path).entries()) == 1

    def _no_sim(*args, **kwargs):
        raise AssertionError("campaign resimulated despite stored artifact")

    monkeypatch.setattr(base, "run_scenario", _no_sim)
    base._campaign_cache.clear()
    with activated_store(ArtifactStore(root=tmp_path)):
        second = base.campaign(**key.asdict())
    assert second == first
    assert first.key == key


# -- argument validation -------------------------------------------------------

def test_run_scenario_sharded_rejects_nonpositive_shards():
    config = ScenarioConfig(days=1.0, seed=1)
    with pytest.raises(ValueError):
        run_scenario_sharded(config, shards=0)


def test_simulate_cell_config_rejects_presharded_config():
    config = ScenarioConfig(
        days=1.0, seed=1, population=PopulationSpec(scale=0.15), shard=(0, 3)
    )
    with pytest.raises(ValueError, match="shard"):
        sharding.simulate_cell_config(config, 0, 3)

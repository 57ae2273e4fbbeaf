"""Campaigns above the canonical population run as one coupled simulation.

A population a few times the canonical one shares one simulator, one set of
schedulers and one accounting stream, exactly like the canonical campaign:
the scenario oracle holds on it, and the artifact store saves and serves it
under its own campaign key.  (The file and test names keep the vocabulary
of the removed multi-cell model, whose contracts these tests carry.)
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments import base
from repro.runner import ArtifactStore
from repro.runner.artifacts import activated_store
from repro.scenarios import check_scenario
from repro.scenarios.strategies import scenario_programs
from repro.users.population import PopulationSpec
from repro.workloads.synthetic import (
    CAMPAIGN_POPULATION_SCALE,
    CampaignKey,
    ScenarioConfig,
    run_scenario,
)


def test_merged_artifact_satisfies_the_oracle():
    config = ScenarioConfig(
        days=1.5, seed=5, population=PopulationSpec(scale=0.15)
    )
    report = check_scenario(run_scenario(config))
    assert report.ok, report.summary()


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    program=scenario_programs(),
    scale=st.sampled_from([CAMPAIGN_POPULATION_SCALE, 0.15]),
)
def test_random_programs_are_shard_invariant(program, scale):
    """Property: random scenario programs at and above the canonical
    population pass the scenario oracle when simulated coupled."""
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
    report = check_scenario(run_scenario(program.compile(days=1.5)))
    assert report.ok, report.summary()


def test_resolve_sharded_campaign_saves_and_reuses_cells(tmp_path, monkeypatch):
    """A campaign at three times the canonical population resolves coupled
    through the store: the first resolution saves one artifact under the
    campaign key, and a fresh store on the same root serves an equal one
    back without simulating."""
    key = CampaignKey.make(days=1.5, seed=3, population_scale=0.15)
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

"""Tests for the store's artifacts namespace and the CampaignKey/Artifact types.

The entry mechanics both namespaces share (round trip, quarantine, atomic
durable writes, clear, gc) come from :mod:`tests.runner.store_contract`.
"""

import pickle

import pytest

from repro.core.classifier import AttributeClassifier, HeuristicClassifier
from repro.core.metrics import compute_metrics
from repro.experiments import base
from repro.runner import artifacts as artifact_mod
from repro.runner.artifacts import ArtifactStore, stats_delta, stats_snapshot
from repro.runner.cache import code_version
from repro.workloads import run_scenario
from repro.workloads.synthetic import CampaignArtifact, CampaignKey
from tests.runner.store_contract import *  # noqa: F401,F403 - the shared suite
from tests.runner.store_contract import ArtifactsNamespace


@pytest.fixture
def namespace(tmp_path):
    return ArtifactsNamespace(tmp_path)


@pytest.fixture(scope="module")
def key():
    return CampaignKey.make(days=3.0, seed=7, population_scale=0.02)


@pytest.fixture(scope="module")
def live_result(key):
    return run_scenario(key.config())


@pytest.fixture(scope="module")
def artifact(key, live_result):
    return CampaignArtifact.from_result(live_result, key=key)


# -- key canonicalization (the _campaign_cache normalization regression) -------

def test_campaign_key_canonicalizes_int_days():
    # days=90 (int) and days=90.0 (float) historically produced distinct
    # memo entries and therefore duplicate simulations.
    assert CampaignKey.make(days=90, seed=1) == CampaignKey.make(days=90.0, seed=1)


def test_campaign_key_canonicalizes_population_scale_and_seed():
    a = CampaignKey.make(days=10, seed=1.0, population_scale=1)
    b = CampaignKey.make(days=10.0, seed=1, population_scale=1.0)
    assert a == b
    assert isinstance(a.seed, int)
    assert isinstance(a.population_scale, float)


def test_distinct_knobs_stay_distinct():
    base = CampaignKey.make(days=10.0, seed=1)
    assert CampaignKey.make(days=10.0, seed=2) != base
    assert CampaignKey.make(days=10.0, seed=1, gateway_tagging_coverage=0.5) != base


def test_key_config_roundtrip(key):
    config = key.config()
    assert config.days == key.days
    assert config.seed == key.seed
    assert config.population.scale == key.population_scale


def test_spelling_variants_share_one_store_path(tmp_path):
    store = ArtifactStore(root=tmp_path)
    a = CampaignKey.make(days=45, seed=3, population_scale=1)
    b = CampaignKey.make(days=45.0, seed=3, population_scale=1.0)
    assert store.path_for(a) == store.path_for(b)


# -- artifact round-trip fidelity ----------------------------------------------

def test_artifact_mirrors_every_live_measurement(key, artifact, live_result):
    """Every measurement the experiments take must be equal live vs artifact."""
    result = live_result
    assert artifact.records == result.records
    assert artifact.truth_by_job() == result.truth_by_job()
    assert artifact.identity_truth == result.truth_by_identity()
    # Ordering matters too: dict iteration order feeds report rendering.
    assert list(artifact.active_truth_by_identity()) == list(
        result.active_truth_by_identity()
    )
    assert artifact.active_truth_by_identity() == result.active_truth_by_identity()
    assert artifact.community_accounts == frozenset(result.community_accounts)
    assert artifact.total_nu == result.central.total_nu()
    live_transfers = result.network.completed_transfers
    assert len(artifact.transfers) == len(live_transfers)
    for summary, live in zip(artifact.transfers, live_transfers):
        assert (summary.src, summary.dst, summary.size_bytes) == (
            live.src, live.dst, live.size_bytes
        )
        assert summary.tag == live.tag
        assert summary.duration == live.duration
    assert artifact.key.config() == result.config
    # The memoized measurements equal the classifiers run on the live records.
    live = {
        "classification": AttributeClassifier().classify(result.records),
        "heuristic_classification": HeuristicClassifier(
            known_community_accounts=result.community_accounts
        ).classify(result.records),
    }
    for name, expected in live.items():
        mine = getattr(artifact, name)
        assert mine.job_labels == expected.job_labels
        assert list(mine.identity_primary) == list(expected.identity_primary)
        assert mine.identity_primary == expected.identity_primary
    assert artifact.modality_metrics == compute_metrics(
        result.records, live["classification"]
    )


def test_stored_then_loaded_artifact_is_equal(tmp_path, key, artifact):
    store = ArtifactStore(root=tmp_path)
    store.save(key, artifact)
    loaded = ArtifactStore(root=tmp_path).load(key)  # fresh memo: disk path
    assert loaded is not None
    assert loaded.records == artifact.records
    assert loaded.job_truth == artifact.job_truth
    assert loaded.identity_truth == artifact.identity_truth
    assert list(loaded.identity_truth) == list(artifact.identity_truth)
    assert loaded.active_identities == artifact.active_identities
    assert loaded.community_accounts == artifact.community_accounts
    assert loaded.total_nu == artifact.total_nu
    assert loaded.transfers == artifact.transfers
    assert loaded.key == key


# -- store mechanics -----------------------------------------------------------

def test_has_and_load_miss(tmp_path, key):
    store = ArtifactStore(root=tmp_path)
    assert not store.has(key)
    assert store.load(key) is None


def test_save_makes_key_visible_to_other_store_instances(tmp_path, key, artifact):
    ArtifactStore(root=tmp_path).save(key, artifact)
    assert ArtifactStore(root=tmp_path).has(key)


def test_campaign_deserializes_a_stored_artifact_once(
    tmp_path, key, artifact, monkeypatch
):
    """campaign()'s memo is the process's only one: two calls under an
    active store read the disk once and return one object."""
    ArtifactStore(root=tmp_path).save(key, artifact)
    monkeypatch.setattr(base, "_campaign_cache", {})
    before = stats_snapshot()
    with artifact_mod.activated_store(ArtifactStore(root=tmp_path)):
        first = base.campaign(**key.asdict())
        second = base.campaign(**key.asdict())
    assert first is second
    assert first == artifact
    assert stats_delta(before).get("loads") == 1


def test_reading_the_measurements_leaves_the_stored_bytes_alone(
    tmp_path, key, live_result
):
    fresh = CampaignArtifact.from_result(live_result, key=key)
    unread = ArtifactStore(root=tmp_path / "unread")
    unread.save(key, fresh)
    assert fresh.modality_metrics.total_jobs == len(fresh.records)
    assert fresh.heuristic_classification.n_identities > 0
    read = ArtifactStore(root=tmp_path / "read")
    read.save(key, fresh)
    assert read.path_for(key).read_bytes() == unread.path_for(key).read_bytes()


def test_a_loaded_artifact_measures_only_when_read(tmp_path, key, artifact):
    measurements = set(CampaignArtifact._MEASUREMENTS)
    expected = artifact.modality_metrics  # read before the save
    ArtifactStore(root=tmp_path).save(key, artifact)
    loaded = ArtifactStore(root=tmp_path).load(key)
    assert not measurements & set(vars(loaded))
    assert loaded.modality_metrics == expected
    assert measurements & set(vars(loaded)) == {
        "classification", "modality_metrics",
    }


def test_corrupted_artifact_is_quarantined_and_a_miss(tmp_path, key, artifact):
    store = ArtifactStore(root=tmp_path)
    store.save(key, artifact)
    path = store.path_for(key)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))

    reader = ArtifactStore(root=tmp_path)
    before = stats_snapshot()
    assert reader.load(key) is None
    assert not path.exists()  # moved aside, not left to fail again
    assert len(reader.quarantined_entries()) == 1
    assert not reader.has(key)
    delta = stats_delta(before)
    assert delta.get("quarantined") == 1
    assert "loads" not in delta  # a quarantine is not a successful load


def test_wrong_payload_type_is_quarantined(tmp_path, key):
    store = ArtifactStore(root=tmp_path)
    path = store.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps({"not": "an artifact"}, protocol=pickle.HIGHEST_PROTOCOL)
    import hashlib

    path.write_bytes(b"RPC1" + hashlib.sha256(payload).digest() + payload)
    assert ArtifactStore(root=tmp_path).load(key) is None
    assert len(store.quarantined_entries()) == 1


def test_clear_drops_the_memo(tmp_path, key, artifact):
    store = ArtifactStore(root=tmp_path)
    store.save(key, artifact)
    assert store.clear() == 1
    assert not store.has(key)
    assert store.load(key) is None


def test_chaos_corrupted_save_is_not_memoized(tmp_path, key, artifact, monkeypatch):
    """The saving process must see the damaged bytes like every other one."""
    monkeypatch.setenv("REPRO_CHAOS", "corrupt:1.0")
    store = ArtifactStore(root=tmp_path)
    store.save(key, artifact)
    assert store.load(key) is None  # read from disk, quarantined
    assert len(store.quarantined_entries()) == 1


def test_size_bytes_counts_stored_artifacts(tmp_path, key, artifact):
    store = ArtifactStore(root=tmp_path)
    assert store.size_bytes() == 0
    store.save(key, artifact)
    assert store.size_bytes() == store.path_for(key).stat().st_size


def test_store_version_is_code_version(tmp_path):
    assert ArtifactStore(root=tmp_path).version == code_version()


# -- active-store plumbing -----------------------------------------------------

def test_activated_store_scopes_and_restores(monkeypatch, tmp_path):
    monkeypatch.setattr(artifact_mod, "_active", None)
    store = ArtifactStore(root=tmp_path)
    with artifact_mod.activated_store(store):
        assert artifact_mod.active_store() is store
    assert artifact_mod.active_store() is None
    with artifact_mod.activated_store(None):  # None leaves things untouched
        assert artifact_mod.active_store() is None


def test_stats_delta_empty_when_nothing_happened():
    before = stats_snapshot()
    assert stats_delta(before) == {}

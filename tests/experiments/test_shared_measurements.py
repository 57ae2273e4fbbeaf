"""One classification per memoized campaign, shared by every table.

T1-T6, T8 and F2 read the campaign's memoized measurements (the
classifications and metrics of its
:class:`~repro.workloads.synthetic.CampaignArtifact`) instead of
classifying its records again.  Sharing one result must not change any
experiment's output, whatever order the experiments run in, and the memo
must live and die with the campaign object in ``_campaign_cache``.
"""

from collections import Counter

import pytest

from repro.core.classifier import AttributeClassifier, HeuristicClassifier
from repro.experiments import base, run_experiment
from repro.runner import artifacts as artifact_mod
from repro.runner.artifacts import ArtifactStore
from repro.workloads.synthetic import CampaignArtifact, CampaignKey, run_scenario

#: The measurement-only experiments that read the T-table campaign.
WARM = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F2", "F9")

KNOBS = {"days": 2.0, "seed": 1}


@pytest.fixture
def memo(monkeypatch):
    """A private, empty campaign memo for the test."""
    fresh: dict = {}
    monkeypatch.setattr(base, "_campaign_cache", fresh)
    return fresh


@pytest.fixture(scope="module")
def alone():
    """Each experiment measured by itself, on a freshly simulated campaign."""
    outputs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base, "_campaign_cache", {})
        for experiment_id in WARM:
            base._campaign_cache.clear()
            outputs[experiment_id] = run_experiment(experiment_id, **KNOBS)
    return outputs


@pytest.fixture
def classify_calls(monkeypatch):
    """Calls of each classifier's ``classify``, by class name."""
    calls: Counter = Counter()
    for cls in (AttributeClassifier, HeuristicClassifier):
        original = cls.classify

        def counted(self, records, _original=original, _name=cls.__name__):
            calls[_name] += 1
            return _original(self, records)

        monkeypatch.setattr(cls, "classify", counted)
    return calls


@pytest.mark.parametrize("first", ["in order", "reversed"])
def test_sharing_one_campaign_changes_no_output(memo, alone, first):
    """Both orders over one memoized campaign, each experiment twice.

    The first pass decides which experiment computes each measurement; the
    second pass, on the same memo, reads what every other experiment (and
    the experiment itself) left behind, so a reader that mutates the shared
    result changes a later output.
    """
    order = list(WARM) if first == "in order" else list(reversed(WARM))
    for experiment_id in order + order[::-1]:
        output = run_experiment(experiment_id, **KNOBS)
        expected = alone[experiment_id]
        assert output.text == expected.text, experiment_id
        assert output.data == expected.data, experiment_id
    assert len(memo) == 1


def test_store_less_campaign_classifies_once_until_the_memo_is_cleared(
    memo, classify_calls
):
    for experiment_id in WARM:
        run_experiment(experiment_id, **KNOBS)
    (result,) = memo.values()
    assert isinstance(result, CampaignArtifact)
    assert result.key == CampaignKey.make(**KNOBS)
    assert classify_calls == {"AttributeClassifier": 1, "HeuristicClassifier": 1}

    base._campaign_cache.clear()
    run_experiment("T3", **KNOBS)
    assert classify_calls == {"AttributeClassifier": 2, "HeuristicClassifier": 2}


def test_stored_campaign_classifies_once_until_the_memo_is_cleared(
    tmp_path, memo, classify_calls
):
    key = CampaignKey.make(**KNOBS)
    artifact = CampaignArtifact.from_result(run_scenario(key.config()), key=key)
    ArtifactStore(root=tmp_path).save(key, artifact)
    with artifact_mod.activated_store(ArtifactStore(root=tmp_path)):
        for experiment_id in WARM:
            run_experiment(experiment_id, **KNOBS)
        loaded = memo[key]
        assert isinstance(loaded, CampaignArtifact)
        assert classify_calls == {
            "AttributeClassifier": 1, "HeuristicClassifier": 1,
        }

        base._campaign_cache.clear()
        run_experiment("T2", **KNOBS)
        assert memo[key] is not loaded
    assert classify_calls == {"AttributeClassifier": 2, "HeuristicClassifier": 1}

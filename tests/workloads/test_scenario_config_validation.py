"""ScenarioConfig rejects bad knobs at construction, not mid-simulation."""

import pytest

from repro.infra.resilience import OutagePolicy
from repro.workloads import ScenarioConfig


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"days": -1.0}, "days must be positive"),
        ({"days": 0.0}, "days must be positive"),
        ({"gateway_tagging_coverage": -0.1}, "gateway_tagging_coverage"),
        ({"gateway_tagging_coverage": 1.5}, "gateway_tagging_coverage"),
        ({"gateway_backlog": -1}, "gateway_backlog must be >= 0"),
        ({"gateway_adoption_ramp_days": -2.0}, "gateway_adoption_ramp_days"),
        ({"outage_propagation_lag": -60.0}, "outage_propagation_lag"),
        (
            {"outages": OutagePolicy()},
            "outages needs a recovery map: set recovery=",
        ),
    ],
)
def test_bad_knob_rejected_with_nameable_error(knobs, message):
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**knobs)


def test_replace_revalidates():
    from dataclasses import replace

    config = ScenarioConfig()
    with pytest.raises(ValueError, match="days must be positive"):
        replace(config, days=-5.0)


def test_run_scenario_overrides_are_validated():
    from repro.workloads import run_scenario

    with pytest.raises(ValueError, match="gateway_backlog"):
        run_scenario(days=1.0, gateway_backlog=-4)


def test_defaults_still_valid():
    config = ScenarioConfig()
    assert config.days > 0
    assert config.horizon == config.days * 86400.0

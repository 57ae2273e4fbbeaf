"""Scenario programs: a declarative DSL, a library, an oracle, and a fuzzer.

Import surface:

* the DSL dataclasses (:class:`ScenarioProgram` and its parts) and the
  dict/YAML loaders are dependency-free;
* :mod:`repro.scenarios.strategies` and :mod:`repro.scenarios.fuzz` need
  hypothesis and are imported lazily — ``import repro.scenarios`` works
  without it.
"""

from repro.scenarios.dsl import (
    SCHEDULERS,
    FederationDef,
    GatewayFleet,
    IngestFaults,
    LoadShape,
    ModalityMix,
    OutageRegime,
    RecoverySuite,
    ScenarioProgram,
)
from repro.scenarios.library import (
    SCENARIO_LIBRARY,
    deadline_gateway_campaign,
    grid5000_reconfig,
    osg_opportunistic,
    teragrid_baseline,
)
from repro.scenarios.loader import load_program, program_from_dict, program_from_yaml
from repro.scenarios.oracle import OracleReport, Violation, check_scenario

__all__ = [
    "SCENARIO_LIBRARY",
    "SCHEDULERS",
    "FederationDef",
    "GatewayFleet",
    "IngestFaults",
    "LoadShape",
    "ModalityMix",
    "OracleReport",
    "OutageRegime",
    "RecoverySuite",
    "ScenarioProgram",
    "Violation",
    "check_scenario",
    "deadline_gateway_campaign",
    "grid5000_reconfig",
    "load_program",
    "osg_opportunistic",
    "program_from_dict",
    "program_from_yaml",
    "teragrid_baseline",
]

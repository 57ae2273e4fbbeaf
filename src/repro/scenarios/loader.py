"""Load :class:`ScenarioProgram` objects from dicts and YAML documents.

The python DSL and this loader are two front-ends to the same validated
dataclasses: every key in a document maps 1:1 onto a DSL field, and all
validation lives in the dataclasses' ``__post_init__`` — the loader only
translates shapes (strings to enums, human units to seconds) and reports
unknown keys early.

A document looks like::

    name: my-federation
    days: 14
    seed: 7
    federation:
      sites:
        - {name: alpha, nodes: 16, cores_per_node: 8,
           nu_per_core_hour: 1.0, wan_bandwidth: 1.0e9}
    mix:
      total_users: 24
      weights: {batch: 2, exploratory: 1, gateway: 1}
    gateways: {n_gateways: 2, tagging_coverage: 0.8, backlog: 8}
    outages: {site_mtbf_days: 10, repair_median_hours: 4}
    recovery:
      batch: {max_attempts: 5, backoff_base: 600}
    ingest: {drop_rate: 0.1, corrupt_rate: 0.05, recovery: audit}
    load: {intensity: 1.5}
    scheduler: easy_backfill
    metascheduler: least_loaded

YAML support needs ``pyyaml``; :func:`load_program` raises a clear error when
it is missing (dict/JSON input works without it).
"""

from __future__ import annotations

from typing import Any, IO, Union

from repro.core.modalities import Modality
from repro.infra.metascheduler import SelectionStrategy
from repro.scenarios.dsl import (
    FederationDef,
    GatewayFleet,
    IngestFaults,
    LoadShape,
    ModalityMix,
    OutageRegime,
    RecoverySuite,
    ScenarioProgram,
)
from repro.users.behavior import RecoveryPolicy
from repro.workloads.scenarios import SiteSpec

__all__ = ["load_program", "program_from_dict", "program_from_yaml"]


def _reject_unknown(section: str, data: dict, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(
            f"unknown {section} key(s): {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _modality(name: str) -> Modality:
    try:
        return Modality(name)
    except ValueError:
        raise ValueError(
            f"unknown modality {name!r}; "
            f"choose from {[m.value for m in Modality]}"
        ) from None


def _site(data: dict) -> SiteSpec:
    _reject_unknown(
        "site",
        data,
        {"name", "nodes", "cores_per_node", "nu_per_core_hour",
         "wan_bandwidth"},
    )
    # Coerce numerics explicitly: YAML 1.1 reads "1.0e9" as a string
    # (it wants "1.0e+9"), and ints are fine for the float fields.
    return SiteSpec(
        name=str(data["name"]),
        nodes=int(data["nodes"]),
        cores_per_node=int(data["cores_per_node"]),
        nu_per_core_hour=float(data.get("nu_per_core_hour", 1.0)),
        wan_bandwidth=float(data.get("wan_bandwidth", 1.0e9)),
    )


def _federation(data: Any) -> FederationDef:
    if isinstance(data, str):
        return FederationDef(preset=data)
    if not isinstance(data, dict):
        raise ValueError(f"federation must be a preset name or mapping, got {data!r}")
    _reject_unknown("federation", data, {"preset", "sites"})
    if "sites" in data:
        sites = tuple(_site(dict(site)) for site in data["sites"])
        return FederationDef(preset=None, sites=sites)
    return FederationDef(preset=data.get("preset", "small"))


def _mix(data: dict) -> ModalityMix:
    _reject_unknown("mix", data, {"total_users", "weights"})
    weights = {
        _modality(name): float(weight)
        for name, weight in dict(data.get("weights", {})).items()
    }
    return ModalityMix(total_users=int(data["total_users"]), weights=weights)


def _recovery(data: dict) -> RecoverySuite:
    overrides = {
        _modality(name): RecoveryPolicy(**dict(knobs))
        for name, knobs in data.items()
    }
    return RecoverySuite(overrides=overrides)


_PROGRAM_KEYS = {
    "name",
    "description",
    "days",
    "seed",
    "federation",
    "mix",
    "gateways",
    "outages",
    "recovery",
    "ingest",
    "load",
    "scheduler",
    "metascheduler",
    "population_scale",
}


def program_from_dict(data: dict) -> ScenarioProgram:
    """Build a validated program from a plain mapping."""
    if not isinstance(data, dict):
        raise ValueError(f"scenario document must be a mapping, got {type(data).__name__}")
    _reject_unknown("scenario", data, _PROGRAM_KEYS)
    if "name" not in data:
        raise ValueError("scenario document needs a name")
    kwargs: dict[str, Any] = {
        "name": str(data["name"]),
        "description": str(data.get("description", "")),
    }
    if "days" in data:
        kwargs["days"] = float(data["days"])
    if "seed" in data:
        kwargs["seed"] = int(data["seed"])
    if "federation" in data:
        kwargs["federation"] = _federation(data["federation"])
    if "mix" in data:
        kwargs["mix"] = _mix(dict(data["mix"]))
    if "gateways" in data:
        kwargs["gateways"] = GatewayFleet(**dict(data["gateways"]))
    if "outages" in data:
        kwargs["outages"] = OutageRegime(**dict(data["outages"]))
    if "recovery" in data:
        kwargs["recovery"] = _recovery(dict(data["recovery"]))
    if "ingest" in data:
        kwargs["ingest"] = IngestFaults(**dict(data["ingest"]))
    if "load" in data:
        kwargs["load"] = LoadShape(**dict(data["load"]))
    if "scheduler" in data:
        kwargs["scheduler"] = str(data["scheduler"])
    if "metascheduler" in data:
        try:
            kwargs["metascheduler"] = SelectionStrategy(data["metascheduler"])
        except ValueError:
            raise ValueError(
                f"unknown metascheduler {data['metascheduler']!r}; choose "
                f"from {[s.value for s in SelectionStrategy]}"
            ) from None
    if "population_scale" in data:
        kwargs["population_scale"] = float(data["population_scale"])
    return ScenarioProgram(**kwargs)


def _yaml():
    try:
        import yaml
    except ImportError:  # pragma: no cover - environment-dependent
        raise ImportError(
            "YAML scenario documents need pyyaml (pip install pyyaml); "
            "dict-based loading via program_from_dict works without it"
        ) from None
    return yaml


def program_from_yaml(text: str) -> ScenarioProgram:
    """Parse one YAML document into a program."""
    data = _yaml().safe_load(text)
    return program_from_dict(data)


def load_program(source: Union[str, IO[str]]) -> ScenarioProgram:
    """Load a program from a YAML file path or an open stream."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return program_from_yaml(handle.read())
    return program_from_yaml(source.read())

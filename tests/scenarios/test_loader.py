"""YAML/dict scenario documents compile to the same programs as the DSL."""

import io
import textwrap

import pytest

from repro.core.modalities import Modality
from repro.infra.metascheduler import SelectionStrategy
from repro.scenarios import (
    FederationDef,
    GatewayFleet,
    IngestFaults,
    LoadShape,
    ModalityMix,
    OutageRegime,
    RecoverySuite,
    ScenarioProgram,
    load_program,
    program_from_dict,
    program_from_yaml,
)
from repro.users.behavior import RecoveryPolicy

DOC = textwrap.dedent(
    """
    name: doc-federation
    description: loader round-trip fixture
    days: 9
    seed: 13
    federation:
      sites:
        - {name: alpha, nodes: 16, cores_per_node: 8,
           nu_per_core_hour: 1.0, wan_bandwidth: 1.0e9}
        - {name: beta, nodes: 8, cores_per_node: 4,
           nu_per_core_hour: 1.5, wan_bandwidth: 5.0e8}
    mix:
      total_users: 24
      weights: {batch: 2, exploratory: 1, gateway: 1}
    gateways: {n_gateways: 2, tagging_coverage: 0.8, backlog: 8}
    outages: {site_mtbf_days: 10, repair_median_hours: 4}
    recovery:
      batch: {max_attempts: 5, backoff_base: 600}
    load: {intensity: 1.5}
    scheduler: fcfs
    metascheduler: least_loaded
    """
)


def equivalent_dsl_program():
    from repro.workloads import SiteSpec

    return ScenarioProgram(
        name="doc-federation",
        description="loader round-trip fixture",
        days=9.0,
        seed=13,
        federation=FederationDef(
            preset=None,
            sites=(
                SiteSpec("alpha", 16, 8, 1.0, 1.0e9),
                SiteSpec("beta", 8, 4, 1.5, 5.0e8),
            ),
        ),
        mix=ModalityMix(
            total_users=24,
            weights={Modality.BATCH: 2.0, Modality.EXPLORATORY: 1.0,
                     Modality.GATEWAY: 1.0},
        ),
        gateways=GatewayFleet(n_gateways=2, tagging_coverage=0.8, backlog=8),
        outages=OutageRegime(site_mtbf_days=10.0, repair_median_hours=4.0),
        recovery=RecoverySuite(
            overrides={
                Modality.BATCH: RecoveryPolicy(max_attempts=5,
                                               backoff_base=600),
            }
        ),
        load=LoadShape(intensity=1.5),
        scheduler="fcfs",
        metascheduler=SelectionStrategy.LEAST_LOADED,
    )


def test_yaml_round_trips_to_the_python_dsl():
    loaded = program_from_yaml(DOC)
    assert loaded == equivalent_dsl_program()
    assert loaded.compile() == equivalent_dsl_program().compile()


def test_load_program_accepts_path_and_stream(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(DOC)
    assert load_program(str(path)) == program_from_yaml(DOC)
    assert load_program(io.StringIO(DOC)) == program_from_yaml(DOC)


def test_preset_shorthand():
    program = program_from_dict({"name": "x", "federation": "small"})
    assert program.federation == FederationDef(preset="small")
    program = program_from_dict(
        {"name": "x", "federation": {"preset": "full"}}
    )
    assert program.federation == FederationDef(preset="full")


def test_defaults_fill_in_for_missing_sections():
    program = program_from_dict({"name": "bare"})
    assert program == ScenarioProgram(name="bare")


def test_unknown_top_level_key_rejected():
    for data in ({"name": "x", "schedular": "fcfs"}, {"name": "x", "shards": 2}):
        with pytest.raises(ValueError, match="unknown scenario key"):
            program_from_dict(data)


def test_unknown_section_key_rejected():
    with pytest.raises(ValueError, match="unknown federation key"):
        program_from_dict(
            {"name": "x", "federation": {"preset": "small", "size": 3}}
        )
    with pytest.raises(ValueError, match="unknown mix key"):
        program_from_dict(
            {"name": "x", "mix": {"total_users": 4, "weight": {}}}
        )


def test_unknown_modality_and_metascheduler_name_errors():
    with pytest.raises(ValueError, match="unknown modality 'steering'"):
        program_from_dict(
            {"name": "x",
             "mix": {"total_users": 4, "weights": {"steering": 1}}}
        )
    with pytest.raises(ValueError, match="unknown metascheduler 'psychic'"):
        program_from_dict({"name": "x", "metascheduler": "psychic"})


def test_missing_name_and_non_mapping_rejected():
    with pytest.raises(ValueError, match="needs a name"):
        program_from_dict({"days": 3})
    with pytest.raises(ValueError, match="must be a mapping"):
        program_from_dict(["not", "a", "mapping"])


def test_section_validation_still_applies():
    # The loader only translates shapes; dataclass validation still fires.
    with pytest.raises(ValueError, match="tagging_coverage"):
        program_from_dict(
            {"name": "x", "gateways": {"tagging_coverage": 2.0}}
        )
    with pytest.raises(ValueError, match="unknown scheduler"):
        program_from_dict({"name": "x", "scheduler": "lottery"})


def test_ingest_section_round_trips():
    program = program_from_dict(
        {
            "name": "x",
            "ingest": {
                "drop_rate": 0.25,
                "duplicate_rate": 0.1,
                "delay_mean_minutes": 30,
                "recovery": "retry",
                "max_attempts": 3,
            },
        }
    )
    assert program.ingest == IngestFaults(
        drop_rate=0.25,
        duplicate_rate=0.1,
        delay_mean_minutes=30,
        recovery="retry",
        max_attempts=3,
    )
    config = program.compile()
    assert config.faulty_ingest
    assert config.ingest_recovery.retransmit
    assert not config.ingest_recovery.reconcile


def test_ingest_section_validation_applies_through_loader():
    with pytest.raises(ValueError, match="unknown recovery level"):
        program_from_dict(
            {"name": "x", "ingest": {"recovery": "wishful-thinking"}}
        )
    with pytest.raises(TypeError):
        program_from_dict({"name": "x", "ingest": {"packet_size": 9}})

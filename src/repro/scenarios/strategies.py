"""Hypothesis strategies over the whole federation-scenario space.

These draw *small* :class:`~repro.scenarios.dsl.ScenarioProgram` instances —
tiny sites, short horizons, a handful of users per modality — so one drawn
scenario simulates in tens of milliseconds and a fuzzing budget of hundreds
stays interactive.  Smallness is a speed constraint, not a coverage one: the
draws range over federation shape, modality mix, scheduler and metascheduler
policy, gateway instrumentation, outage climate and recovery discipline, so
the oracle sees combinations no hand-written experiment ever builds.

Everything here is importable by the ``repro fuzz`` CLI (hence it lives in
``src``, not ``tests``); hypothesis itself is an optional dependency, gated
at import time with a clear error.
"""

from __future__ import annotations

try:
    from hypothesis import strategies as st
except ImportError as exc:  # pragma: no cover - environment-dependent
    raise ImportError(
        "scenario fuzzing needs hypothesis (pip install hypothesis)"
    ) from exc

from repro.core.modalities import MODALITY_ORDER
from repro.infra.metascheduler import SelectionStrategy
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
from repro.users.behavior import RecoveryPolicy
from repro.workloads.scenarios import SiteSpec

__all__ = [
    "MIN_DAYS",
    "federations",
    "gateway_fleets",
    "ingest_faults",
    "modality_mixes",
    "outage_regimes",
    "recovery_suites",
    "scenario_programs",
    "site_specs",
]

#: Shortest horizon :func:`scenario_programs` draws (its ``max_days`` floor).
MIN_DAYS = 2.0

#: Deterministic site-name pool (names never matter, uniqueness does).
_SITE_NAMES = tuple(f"site{i:02d}" for i in range(8))


@st.composite
def site_specs(draw, name: str) -> SiteSpec:
    """One small machine: 4-32 nodes, 2-16 cores each."""
    return SiteSpec(
        name=name,
        nodes=draw(st.integers(min_value=4, max_value=32)),
        cores_per_node=draw(st.sampled_from([2, 4, 8, 16])),
        nu_per_core_hour=draw(
            st.floats(min_value=0.5, max_value=2.5, allow_nan=False)
        ),
        wan_bandwidth=draw(
            st.sampled_from([1.25e8, 3.125e8, 6.25e8, 1.25e9])
        ),
    )


@st.composite
def federations(draw) -> FederationDef:
    """2-5 explicit tiny sites (presets are covered by the library suite)."""
    n_sites = draw(st.integers(min_value=2, max_value=5))
    sites = tuple(
        draw(site_specs(name)) for name in _SITE_NAMES[:n_sites]
    )
    return FederationDef(preset=None, sites=sites)


@st.composite
def modality_mixes(draw) -> ModalityMix:
    """A small community with 1-4 modalities present at random weights."""
    present = draw(
        st.lists(
            st.sampled_from(MODALITY_ORDER),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    weights = {
        modality: draw(st.floats(min_value=0.5, max_value=5.0, allow_nan=False))
        for modality in present
    }
    total = draw(st.integers(min_value=len(present), max_value=16))
    return ModalityMix(total_users=total, weights=weights)


@st.composite
def gateway_fleets(draw) -> GatewayFleet:
    return GatewayFleet(
        n_gateways=draw(st.integers(min_value=1, max_value=3)),
        tagging_coverage=draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        ),
        backlog=draw(st.sampled_from([0, 1, 4, 16])),
        adoption_ramp_days=draw(st.sampled_from([0.0, 1.0, 3.0])),
    )


@st.composite
def outage_regimes(draw) -> OutageRegime:
    """A hostile-but-bounded failure climate (always repairs within hours)."""
    return OutageRegime(
        site_mtbf_days=draw(st.sampled_from([0.0, 1.0, 2.0, 5.0])),
        partial_mtbf_days=draw(st.sampled_from([0.0, 1.0, 3.0])),
        partial_fraction=draw(
            st.floats(min_value=0.1, max_value=0.5, allow_nan=False)
        ),
        repair_median_hours=draw(
            st.floats(min_value=0.5, max_value=4.0, allow_nan=False)
        ),
        repair_sigma=draw(
            st.floats(min_value=0.1, max_value=1.0, allow_nan=False)
        ),
        repair_min_hours=0.25,
        repair_max_hours=12.0,
        propagation_lag_minutes=draw(st.sampled_from([0.0, 5.0, 20.0])),
    )


@st.composite
def recovery_suites(draw) -> RecoverySuite:
    """Default discipline with up to two per-modality overrides."""
    overridden = draw(
        st.lists(
            st.sampled_from(MODALITY_ORDER),
            min_size=0,
            max_size=2,
            unique=True,
        )
    )
    overrides = {
        modality: RecoveryPolicy(
            resubmit=draw(st.booleans()),
            max_attempts=draw(st.integers(min_value=1, max_value=5)),
            backoff_base=draw(st.sampled_from([60.0, 300.0, 900.0])),
            backoff_factor=draw(
                st.floats(min_value=1.0, max_value=3.0, allow_nan=False)
            ),
            checkpoint_interval=draw(
                st.sampled_from([None, 1800.0, 7200.0])
            ),
        )
        for modality in overridden
    }
    return RecoverySuite(overrides=overrides)


@st.composite
def ingest_faults(draw) -> IngestFaults:
    """A dirty-but-bounded accounting link with every recovery level.

    Rates stay below ~0.4 so a short fuzz horizon still delivers *some*
    packets first-try; ``recovery`` ranges over all three levels so the
    oracle exercises fire-and-forget loss, retry convergence, and the
    audit's zero-unrecovered guarantee.
    """
    return IngestFaults(
        drop_rate=draw(st.sampled_from([0.0, 0.1, 0.25, 0.4])),
        duplicate_rate=draw(st.sampled_from([0.0, 0.1, 0.25])),
        reorder_rate=draw(st.sampled_from([0.0, 0.15, 0.3])),
        corrupt_rate=draw(st.sampled_from([0.0, 0.1, 0.25])),
        delay_mean_minutes=draw(st.sampled_from([0.0, 10.0, 45.0])),
        recovery=draw(st.sampled_from(["none", "retry", "audit"])),
        ack_timeout_minutes=draw(st.sampled_from([15.0, 30.0, 60.0])),
        max_attempts=draw(st.integers(min_value=1, max_value=5)),
    )


@st.composite
def scenario_programs(draw, max_days: float = 6.0) -> ScenarioProgram:
    """One random point in scenario space, sized for sub-second simulation."""
    has_outages = draw(st.booleans())
    outages = draw(outage_regimes()) if has_outages else None
    if outages is not None and (
        outages.site_mtbf_days == 0.0 and outages.partial_mtbf_days == 0.0
    ):
        outages = None  # both processes disabled: same as no regime
    faults = draw(ingest_faults()) if draw(st.booleans()) else None
    if faults is not None and not faults.regime().enabled:
        faults = None  # all-zero regime: same plain path as no section
    return ScenarioProgram(
        name=f"fuzz-{draw(st.integers(min_value=0, max_value=10**6))}",
        description="drawn from scenario space",
        days=draw(
            st.floats(min_value=MIN_DAYS, max_value=max_days, allow_nan=False)
        ),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        federation=draw(federations()),
        mix=draw(modality_mixes()),
        gateways=draw(gateway_fleets()),
        outages=outages,
        recovery=draw(recovery_suites()) if has_outages else None,
        ingest=faults,
        load=LoadShape(
            intensity=draw(
                st.floats(min_value=0.5, max_value=3.0, allow_nan=False)
            ),
            gateway_ramp_days=draw(st.sampled_from([0.0, 2.0])),
        ),
        scheduler=draw(st.sampled_from(sorted(SCHEDULERS))),
        metascheduler=draw(st.sampled_from(sorted(SelectionStrategy, key=lambda s: s.value))),
    )

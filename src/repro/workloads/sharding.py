"""Population-sharded campaigns: cell decomposition, per-cell artifacts, merge.

The scale tier decomposes one campaign's user population into *cells* of
canonical size (:data:`CELL_SCALE`, the population scale of the canonical
T-table campaign).  Each cell simulates the **full shared world** — the
complete population is built from the campaign seed's ``"population"``
stream, so sites, gateways, community accounts and per-user named streams
are identical in every cell — but only the users whose ordinal in
``population.users`` satisfies ``ordinal % cells == cell`` run behavior
processes.  Cells are therefore disjoint in *activity* while agreeing on
*structure*, and their union covers every user exactly once.

Three determinism properties carry the tier:

* **Cell independence** — a cell's output is a pure function of
  ``(campaign key, cell, cells)``.  Module-global id counters (job ids,
  ``wf-N``/``ens-N``/``coalloc-N`` attribute ids, ...) would otherwise leak
  process history into artifacts, so every cell simulation runs under
  :func:`scoped_id_counters`, which swaps all seven counters for fresh
  1-based ones and restores the originals on exit.
* **Shard-count invariance** — ``shards=N`` only *groups* cells onto
  stage-1 tasks (round-robin, like ``--jobs``); the cell set and the merge
  are functions of the campaign key alone, so any ``N`` produces the same
  merged bytes.
* **Canonical-scale identity** — a campaign at the canonical population
  scale has exactly one cell, and the single-cell path runs the plain
  coupled :func:`run_scenario` (no shard filter), so sharded execution of
  the standard T-table sweep is byte-identical to the unsharded baseline,
  not merely statistically equivalent.

Every cell draws from the same :class:`RandomStreams` as the coupled run,
so above canonical scale a multi-cell campaign differs from the coupled
campaign by queue decoupling (each cell's schedulers see only that cell's
users), not by a second RNG semantics.

The merge renumbers ids with a per-cell stride/prefix (cells were minted
independently from 1) and emits the combined usage-record stream in the
accounting order ``(end_time, job_id)`` — with strided ids that is exactly
"sim time, then shard ordinal, then within-cell order".
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.infra.accounting import UsageRecord
from repro.infra.job import AttributeKeys
from repro.sim.rng import RandomStreams
from repro.users.population import PopulationSpec
from repro.workloads.synthetic import (
    CAMPAIGN_POPULATION_SCALE,
    CampaignArtifact,
    CampaignKey,
    ScenarioConfig,
    run_scenario,
)

__all__ = [
    "CELL_SCALE",
    "CELL_ID_STRIDE",
    "CellKey",
    "cell_count",
    "merge_cell_artifacts",
    "resolve_sharded_campaign",
    "run_scenario_sharded",
    "scoped_id_counters",
    "set_shard_mode",
    "shard_mode",
    "sharded",
    "simulate_cell",
    "simulate_cell_config",
]

#: Population scale of one cell — the canonical campaign's scale, so the
#: canonical T-table campaigns decompose into exactly one cell.
CELL_SCALE = CAMPAIGN_POPULATION_SCALE

#: Per-cell job-id namespace width.  Cell ``c``'s local job ``j`` becomes
#: ``c * CELL_ID_STRIDE + j`` in the merged artifact; a cell minting this
#: many jobs would alias into its neighbour, so the merge asserts against it.
CELL_ID_STRIDE = 10**7

#: Users in one canonical cell (all modalities, scale = CELL_SCALE).
_CELL_USERS = sum(PopulationSpec(scale=CELL_SCALE).user_counts().values())

#: Record-attribute keys whose values are minted from per-cell id counters
#: and therefore need cell-aware renumbering in the merge.
_COUNTER_ATTRIBUTES = (
    AttributeKeys.WORKFLOW_ID,
    AttributeKeys.ENSEMBLE_ID,
    AttributeKeys.COALLOCATION_ID,
)


def cell_count(population: PopulationSpec | float) -> int:
    """Number of population cells for ``population`` (a spec or a scale).

    A pure function of the campaign key — never of ``shards``/``--jobs`` —
    so the decomposition is identical no matter how execution is arranged.
    """
    if not isinstance(population, PopulationSpec):
        population = PopulationSpec(scale=float(population))
    total_users = sum(population.user_counts().values())
    return max(1, round(total_users / _CELL_USERS))


@dataclass(frozen=True)
class CellKey:
    """Identity of one population cell of a sharded campaign.

    ``seed`` is the :meth:`RandomStreams.spawn`-derived per-shard seed
    (stable across workers and execution order); ``campaign_seed`` keeps the
    parent campaign recoverable and in the artifact-store knob hash.  The
    field set mirrors :class:`CampaignKey` so the generic
    :class:`~repro.runner.artifacts.ArtifactStore` path scheme
    (``asdict`` + ``seed``) applies unchanged.
    """

    days: float
    seed: int
    campaign_seed: int
    scale: str
    population_scale: float
    gateway_tagging_coverage: float
    gateway_adoption_ramp_days: float
    cell: int
    cells: int

    @classmethod
    def for_cell(cls, key: CampaignKey, cell: int, cells: int) -> "CellKey":
        if not 0 <= cell < cells:
            raise ValueError(f"cell must be in [0, {cells}), got {cell}")
        derived = RandomStreams(key.seed).spawn(f"shard:{cell}/{cells}").seed
        return cls(
            days=key.days,
            seed=derived,
            campaign_seed=key.seed,
            scale=key.scale,
            population_scale=key.population_scale,
            gateway_tagging_coverage=key.gateway_tagging_coverage,
            gateway_adoption_ramp_days=key.gateway_adoption_ramp_days,
            cell=cell,
            cells=cells,
        )

    def asdict(self) -> dict:
        return {
            "days": self.days,
            "seed": self.seed,
            "campaign_seed": self.campaign_seed,
            "scale": self.scale,
            "population_scale": self.population_scale,
            "gateway_tagging_coverage": self.gateway_tagging_coverage,
            "gateway_adoption_ramp_days": self.gateway_adoption_ramp_days,
            "cell": self.cell,
            "cells": self.cells,
        }

    @property
    def campaign_key(self) -> CampaignKey:
        return CampaignKey.make(
            days=self.days,
            seed=self.campaign_seed,
            scale=self.scale,
            population_scale=self.population_scale,
            gateway_tagging_coverage=self.gateway_tagging_coverage,
            gateway_adoption_ramp_days=self.gateway_adoption_ramp_days,
        )

    def config(self) -> ScenarioConfig:
        base = self.campaign_key.config()
        if self.cells == 1:
            return base
        return replace(base, shard=(self.cell, self.cells))


# ---------------------------------------------------------------------------
# Cell isolation
# ---------------------------------------------------------------------------

#: ``(module path, attribute)`` of every module-global id counter.
_ID_COUNTERS = (
    ("repro.infra.job", "_job_ids"),
    ("repro.infra.workflow", "_workflow_ids"),
    ("repro.infra.coalloc", "_coalloc_ids"),
    ("repro.infra.network", "_transfer_ids"),
    ("repro.infra.pilot", "_task_ids"),
    ("repro.infra.scheduler.base", "_reservation_ids"),
    ("repro.users.behavior", "_ensemble_ids"),
)


@contextmanager
def scoped_id_counters() -> Iterator[None]:
    """Run a block with fresh 1-based id counters, restoring the originals.

    Absolute job/workflow/ensemble/... ids are minted from module-global
    ``itertools.count(1)`` counters and therefore depend on everything the
    process simulated before.  Reports are id-invariant, but cell
    *artifacts* must be byte-deterministic so that sharded campaigns don't
    depend on task layout; scoping the counters makes each cell's ids a
    pure function of its key.
    """
    import importlib

    saved = []
    for module_path, attribute in _ID_COUNTERS:
        module = importlib.import_module(module_path)
        saved.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, itertools.count(1))
    try:
        yield
    finally:
        for module, attribute, counter in saved:
            setattr(module, attribute, counter)


# ---------------------------------------------------------------------------
# Cell simulation
# ---------------------------------------------------------------------------


def simulate_cell_config(
    config: ScenarioConfig, cell: int, cells: int, key: object = None
) -> CampaignArtifact:
    """Simulate one population cell of ``config`` into an artifact.

    With a single cell this is the plain coupled :func:`run_scenario` —
    identical physics, identical bytes (modulo the scoped ids) to the
    legacy unsharded run.  With more, the cell builds the full shared world
    and activates only its own users; it draws from the same named
    :class:`~repro.sim.rng.RandomStreams` as the coupled run.
    """
    if config.shard is not None:
        raise ValueError(f"config already carries a shard assignment: {config.shard}")
    if cells > 1:
        config = replace(config, shard=(cell, cells))
    with scoped_id_counters():
        result = run_scenario(config)
        return CampaignArtifact.from_result(result, key=key)


def simulate_cell(key: CampaignKey, cell: int, cells: int) -> CampaignArtifact:
    """Simulate cell ``cell`` of campaign ``key`` under its :class:`CellKey`."""
    cell_key = CellKey.for_cell(key, cell, cells)
    return simulate_cell_config(key.config(), cell, cells, key=cell_key)


# ---------------------------------------------------------------------------
# Deterministic merge
# ---------------------------------------------------------------------------


def _renumber_attributes(attributes: dict, cell: int) -> dict:
    out = dict(attributes)
    for attr in _COUNTER_ATTRIBUTES:
        value = out.get(attr)
        if value is None:
            continue
        if isinstance(value, int):
            out[attr] = cell * CELL_ID_STRIDE + value
        else:
            out[attr] = f"c{cell}:{value}"
    return out


def _renumber_record(record: UsageRecord, cell: int) -> UsageRecord:
    if record.job_id >= CELL_ID_STRIDE:
        raise ValueError(
            f"cell {cell} minted job id {record.job_id} >= stride {CELL_ID_STRIDE}"
        )
    return replace(
        record,
        job_id=cell * CELL_ID_STRIDE + record.job_id,
        attributes=_renumber_attributes(record.attributes, cell),
    )


def _merge_snapshot_values(values: list):
    """Combine one metric's per-cell snapshot values (see MetricsRegistry)."""
    first = values[0]
    if isinstance(first, dict):
        if "high_water" in first:  # gauge: last value per cell, shared peak
            return {
                "value": sum(v["value"] for v in values),
                "high_water": max(v["high_water"] for v in values),
            }
        if "count" in first:  # histogram
            observed = [v for v in values if v["count"]]
            return {
                "count": sum(v["count"] for v in values),
                "total": sum(v["total"] for v in values),
                "min": min(v["min"] for v in observed) if observed else first["min"],
                "max": max(v["max"] for v in observed) if observed else first["max"],
            }
        return first
    return sum(values)  # counter


def merge_cell_artifacts(
    key: Optional[CampaignKey], artifacts: list[CampaignArtifact]
) -> CampaignArtifact:
    """Deterministically combine per-cell artifacts into the campaign artifact.

    Usage records are renumbered into per-cell id namespaces
    (``cell * CELL_ID_STRIDE + local_id``, likewise the ``workflow_id`` /
    ``ensemble_id`` / ``coallocation_id`` attribute values) and emitted in
    the central accounting order ``(end_time, job_id)`` — a stable sort by
    sim time, then shard ordinal, then within-cell mint order — exactly the
    order :meth:`CentralAccountingDB.all_records` would produce.  Every
    other field merges by cell-ordered union/sum, so the result is a pure
    function of the cell artifacts.
    """
    if not artifacts:
        raise ValueError("merge_cell_artifacts() needs at least one artifact")
    if len(artifacts) == 1:
        # Single cell: the artifact IS the campaign artifact (the cell sim
        # ran the plain coupled run_scenario); just stamp the campaign key.
        return replace(artifacts[0], key=key)

    records: list[UsageRecord] = []
    job_truth: dict[int, object] = {}
    identity_truth: dict[str, object] = {}
    active: set[str] = set()
    accounts: set[str] = set()
    total_nu = 0.0
    transfers: list = []
    snapshot_values: dict[str, list] = {}
    for cell, artifact in enumerate(artifacts):
        records.extend(_renumber_record(r, cell) for r in artifact.records)
        for job_id, modality in artifact.job_truth.items():
            job_truth[cell * CELL_ID_STRIDE + job_id] = modality
        # Each cell built the identical full population, so the truth maps
        # agree; cell-ordered update keeps the merge total even if a future
        # change makes them partial.
        identity_truth.update(artifact.identity_truth)
        active.update(artifact.active_identities)
        accounts.update(artifact.community_accounts)
        total_nu += artifact.total_nu
        transfers.extend(artifact.transfers)
        for name, value in artifact.metric_snapshot.items():
            snapshot_values.setdefault(name, []).append(value)

    records.sort(key=lambda r: (r.end_time, r.job_id))
    return CampaignArtifact(
        key=key,
        records=records,
        job_truth=job_truth,
        identity_truth=identity_truth,
        active_identities=frozenset(active),
        community_accounts=frozenset(accounts),
        total_nu=total_nu,
        transfers=tuple(transfers),
        metric_snapshot={
            name: _merge_snapshot_values(values)
            for name, values in sorted(snapshot_values.items())
        },
    )


# ---------------------------------------------------------------------------
# Whole-campaign entry points
# ---------------------------------------------------------------------------


def run_scenario_sharded(config: ScenarioConfig, shards: int = 1) -> CampaignArtifact:
    """Run ``config`` cell-by-cell in-process and return the merged artifact.

    ``shards`` only changes the order cells are visited (round-robin groups,
    mirroring the runner's stage-1 task grouping); any value produces the
    same bytes because cells are isolated — the property the shard-merge
    determinism tests pin down.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    cells = cell_count(config.population)
    groups = min(int(shards), cells)
    artifacts: list[Optional[CampaignArtifact]] = [None] * cells
    for group in range(groups):
        for cell in range(group, cells, groups):
            artifacts[cell] = simulate_cell_config(config, cell, cells)
    return merge_cell_artifacts(None, artifacts)  # type: ignore[arg-type]


def resolve_sharded_campaign(key: CampaignKey, store=None) -> CampaignArtifact:
    """Load-or-simulate every cell of ``key`` and return the merged artifact.

    Cell artifacts live in the (checksummed, quarantining) campaign artifact
    ``store`` under their :class:`CellKey`; the merged artifact is
    recomputed on demand — it is cheap relative to simulation and keeping a
    single per-cell source of truth avoids cross-mode store aliasing with
    legacy whole-campaign artifacts.
    """
    from repro.runner import artifacts as artifact_mod

    cells = cell_count(key.population_scale)
    parts: list[CampaignArtifact] = []
    for cell in range(cells):
        cell_key = CellKey.for_cell(key, cell, cells)
        artifact = store.load(cell_key) if store is not None else None
        if artifact is None:
            artifact = simulate_cell(key, cell, cells)
            if store is not None:
                # Store-less runs simulate by design: not a fallback.
                artifact_mod.note_simulation()
                store.save(cell_key, artifact)
        parts.append(artifact)
    return merge_cell_artifacts(key, parts)


# ---------------------------------------------------------------------------
# Process-global shard mode (mirrors repro.runner.artifacts.active_store)
# ---------------------------------------------------------------------------

_shard_mode: Optional[int] = None


def shard_mode() -> Optional[int]:
    """The active shard count, or ``None`` when campaigns run unsharded."""
    return _shard_mode


def set_shard_mode(shards: Optional[int]) -> None:
    """Activate (or clear) sharded campaign resolution for this process.

    Workers call this from the spec they receive; the driver uses the
    :func:`sharded` context manager instead.
    """
    global _shard_mode
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    _shard_mode = shards


@contextmanager
def sharded(shards: Optional[int]) -> Iterator[None]:
    """Scoped :func:`set_shard_mode`, restoring the previous mode on exit."""
    previous = _shard_mode
    set_shard_mode(shards)
    try:
        yield
    finally:
        set_shard_mode(previous)

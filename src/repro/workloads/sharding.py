"""Multi-cell campaigns: cell decomposition, scoped ids, deterministic merge.

The multi-cell model decomposes one scenario's user population into *cells*
of canonical size (:data:`CELL_SCALE`, the population scale of the canonical
T-table campaign).  Each cell simulates the **full shared world** — the
complete population is built from the scenario seed's ``"population"``
stream, so sites, gateways, community accounts and per-user named streams
are identical in every cell — but only the users whose ordinal in
``population.users`` satisfies ``ordinal % cells == cell`` run behavior
processes.  Cells are therefore disjoint in *activity* while agreeing on
*structure*, and their union covers every user exactly once.

:func:`run_scenario_sharded` runs the cells one after another in this
process and merges them; ``repro scenario run --shards N``, the scenario
DSL's ``shards:`` field and the scale bench use it.  The experiment runner
does not: it simulates every campaign coupled, with :func:`run_scenario`.

Three determinism properties carry the model:

* **Cell independence** — a cell's output is a pure function of
  ``(config, cell, cells)``.  Module-global id counters (job ids,
  ``wf-N``/``ens-N``/``coalloc-N`` attribute ids, ...) would otherwise leak
  process history into artifacts, so every cell simulation runs under
  :func:`scoped_id_counters`, which swaps all seven counters for fresh
  1-based ones and restores the originals on exit.
* **Shard-count invariance** — ``shards=N`` only changes the order in which
  cells are visited (round-robin groups); the cell set and the merge are
  functions of the config alone, so any ``N`` produces the same merged
  bytes.
* **Canonical-scale identity** — a campaign at the canonical population
  scale has exactly one cell, and the single-cell path runs the plain
  coupled :func:`run_scenario` (no shard filter), so its bytes equal the
  coupled run's, not merely its statistics.

Every cell draws from the same :class:`~repro.sim.rng.RandomStreams` as the
coupled run, so above canonical scale a multi-cell campaign differs from the
coupled campaign by queue decoupling (each cell's schedulers see only that
cell's users), not by a second RNG semantics.

The merge renumbers ids with a per-cell stride/prefix (cells were minted
independently from 1) and emits the combined usage-record stream in the
accounting order ``(end_time, job_id)`` — with strided ids that is exactly
"sim time, then cell ordinal, then within-cell order".
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, Optional

from repro.infra.accounting import UsageRecord
from repro.infra.job import AttributeKeys
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
    "cell_count",
    "merge_cell_artifacts",
    "run_scenario_sharded",
    "scoped_id_counters",
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

    A pure function of the population — never of ``shards`` — so the
    decomposition is identical no matter in which order cells run.
    """
    if not isinstance(population, PopulationSpec):
        population = PopulationSpec(scale=float(population))
    total_users = sum(population.user_counts().values())
    return max(1, round(total_users / _CELL_USERS))


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
    *artifacts* must be byte-deterministic so that a merged campaign does
    not depend on the order its cells ran in; scoping the counters makes
    each cell's ids a pure function of its config and cell.
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
    config: ScenarioConfig, cell: int, cells: int
) -> CampaignArtifact:
    """Simulate one population cell of ``config`` into an artifact.

    With a single cell this is the plain coupled :func:`run_scenario` —
    identical physics, identical bytes (modulo the scoped ids) to the
    coupled run.  With more, the cell builds the full shared world
    and activates only its own users; it draws from the same named
    :class:`~repro.sim.rng.RandomStreams` as the coupled run.
    """
    if config.shard is not None:
        raise ValueError(f"config already carries a shard assignment: {config.shard}")
    if cells > 1:
        config = replace(config, shard=(cell, cells))
    with scoped_id_counters():
        result = run_scenario(config)
        return CampaignArtifact.from_result(result)


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

    ``shards`` only changes the order cells are visited (round-robin
    groups); any value produces the same bytes because cells are isolated —
    the property the shard-merge determinism tests pin down.  Cells run
    serially, so ``shards`` never makes the run faster.
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

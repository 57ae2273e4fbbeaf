"""The ``artifacts`` namespace of the store: simulate once, measure everywhere.

The parallel runner's campaign stage serializes each distinct campaign's
:class:`~repro.workloads.synthetic.CampaignArtifact` here so the measurement
stage — running in any worker process — can load it instead of re-simulating.
Entries live in the checksummed store of :mod:`repro.runner.cache`, keyed by
``(campaign-knobs-hash, seed, code-version)``::

    <root>/artifacts/<code-version>/<knobs-hash>-s<seed>.pkl

A torn or bit-flipped artifact is quarantined on load and treated as a
miss: the caller falls back to a live simulation, so corruption can slow a
sweep down but never change its bytes.

Per-process plumbing: workers activate the store once
(:func:`ensure_active_store`); loads are memoized per process
(:attr:`ArtifactStore._memo`) so a worker deserializes each artifact at most
once no matter how many measurement tasks it executes; and the module-level
:data:`STATS` counters let the runner aggregate dedup/fallback/load-time
telemetry across processes via worker outcomes.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Optional

from repro.runner.cache import StoreNamespace, canonical_params
from repro.workloads.synthetic import CampaignArtifact, CampaignKey

__all__ = [
    "ArtifactStats",
    "ArtifactStore",
    "STATS",
    "active_store",
    "activated_store",
    "campaign_stage",
    "ensure_active_store",
    "in_campaign_stage",
    "record_metrics",
    "stats_snapshot",
    "stats_delta",
]


@dataclass
class ArtifactStats:
    """Per-process artifact telemetry (see :data:`STATS`)."""

    loads: int = 0
    load_seconds: float = 0.0
    simulations: int = 0  # live run_scenario calls with a store active
    fallbacks: int = 0  # ...of which happened *outside* the campaign stage
    writes: int = 0
    quarantined: int = 0


#: Process-global counters.  Worker processes report deltas back to the
#: driver inside :class:`~repro.runner.worker.WorkerOutcome`.
STATS = ArtifactStats()

_STAT_FIELDS = (
    "loads", "load_seconds", "simulations", "fallbacks", "writes", "quarantined",
)


def stats_snapshot() -> tuple:
    return tuple(getattr(STATS, name) for name in _STAT_FIELDS)


def stats_delta(before: tuple) -> dict:
    """What changed since ``before`` (non-zero fields only; {} = nothing)."""
    delta = {}
    for name, then in zip(_STAT_FIELDS, before):
        now = getattr(STATS, name)
        if now != then:
            delta[name] = now - then
    return delta


def record_metrics(metrics, delta: dict) -> None:
    """Fold one process's counter delta into a metrics registry.

    ``metrics`` is duck-typed (``repro.obs.metrics.MetricsRegistry``) so this
    module keeps zero obs imports.  Counts land on ``artifacts.*`` counters;
    ``load_seconds`` is observed as one histogram sample per delta (its
    total is exact, its sample count is per-report, not per-load).
    """
    for name, amount in delta.items():
        if name == "load_seconds":
            metrics.histogram("artifacts.load_seconds").observe(amount)
        else:
            metrics.counter(f"artifacts.{name}").inc(amount)


# -- active-store plumbing -----------------------------------------------------

_active: Optional["ArtifactStore"] = None
_stage_depth = 0


def active_store() -> Optional["ArtifactStore"]:
    """The store :func:`repro.experiments.base.campaign` resolves through."""
    return _active


def ensure_active_store(root: str | os.PathLike) -> "ArtifactStore":
    """Activate (or reuse) the process-wide store rooted at ``root``.

    Pool workers call this at task pickup; the store (and its load memo)
    persists for the life of the worker process, so repeated tasks on one
    worker deserialize each artifact exactly once.
    """
    global _active
    root = Path(root)
    if _active is None or _active.root != root:
        _active = ArtifactStore(root=root)
    return _active


@contextmanager
def activated_store(store: Optional["ArtifactStore"]):
    """Scope ``store`` as the active one (None = leave things untouched)."""
    global _active
    if store is None:
        yield
        return
    previous = _active
    _active = store
    try:
        yield
    finally:
        _active = previous


@contextmanager
def campaign_stage():
    """Mark the current execution as stage-1 (an *expected* simulation)."""
    global _stage_depth
    _stage_depth += 1
    try:
        yield
    finally:
        _stage_depth -= 1


def in_campaign_stage() -> bool:
    return _stage_depth > 0


def note_simulation() -> None:
    """Record one live campaign simulation under an active store."""
    STATS.simulations += 1
    if not in_campaign_stage():
        STATS.fallbacks += 1


# -- the store itself ----------------------------------------------------------

@dataclass
class ArtifactStore(StoreNamespace):
    """The ``artifacts`` namespace: one entry per campaign."""

    namespace: ClassVar[str] = "artifacts"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._memo: dict[CampaignKey, CampaignArtifact] = {}

    @property
    def stats(self) -> ArtifactStats:
        """The process-global :data:`STATS`, where writes and quarantines count."""
        return STATS

    # -- keys ----------------------------------------------------------------
    @staticmethod
    def knobs_hash(key: CampaignKey) -> str:
        knobs = {k: v for k, v in key.asdict().items() if k != "seed"}
        material = canonical_params(knobs)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def path_for(self, key: CampaignKey) -> Path:
        return self.entry_path(f"{self.knobs_hash(key)}-s{key.seed}")

    # -- read side -----------------------------------------------------------
    def has(self, key: CampaignKey) -> bool:
        return key in self._memo or self.path_for(key).exists()

    def load(self, key: CampaignKey) -> Optional[CampaignArtifact]:
        """The stored artifact, or ``None`` on miss (damage = quarantine + miss).

        Loads are memoized per process: the deserialization cost is paid at
        most once per (worker, campaign) pair.
        """
        memoized = self._memo.get(key)
        if memoized is not None:
            return memoized
        started = time.monotonic()
        hit, artifact = self._read(self.path_for(key), CampaignArtifact)
        if not hit:
            return None
        STATS.loads += 1
        STATS.load_seconds += time.monotonic() - started
        self._memo[key] = artifact
        return artifact

    # -- write side ----------------------------------------------------------
    def save(self, key: CampaignKey, artifact: CampaignArtifact) -> None:
        """Store durably, then memoize.

        An entry the chaos harness corrupted is not memoized: this process
        must see the same damaged bytes as every other one.
        """
        path = self.path_for(key)
        # The path stem is the stable (knobs-hash, seed) identity.
        if not self._write(path, artifact, chaos_site=f"artifact/{path.stem}"):
            self._memo[key] = artifact

    def clear(self) -> int:
        self._memo.clear()
        return super().clear()

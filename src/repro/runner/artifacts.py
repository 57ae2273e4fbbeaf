"""On-disk campaign artifact store: simulate once, measure everywhere.

The parallel runner's campaign stage serializes each distinct campaign's
:class:`~repro.workloads.synthetic.CampaignArtifact` here so the measurement
stage — running in any worker process — can load it instead of re-simulating.
The store is keyed like the result cache, ``(campaign-knobs-hash, seed,
code-version)``, laid out as::

    <root>/<code-version>/<knobs-hash>-s<seed>.pkl
    <root>/quarantine/            # damaged entries, moved aside on read

Entries reuse the result cache's checksummed format (magic + SHA-256 +
pickle): a torn or bit-flipped artifact is *quarantined* on load and treated
as a miss — the caller falls back to a live simulation, so corruption can
slow a sweep down but never change its bytes.  Writes are atomic and
durable (temp-file + fsync + rename + directory fsync) for the same reason,
and the chaos harness's ``corrupt`` injection applies to artifact writes
exactly as it does to result-cache writes.

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
import pickle
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.runner.cache import (
    canonical_params,
    code_version,
    default_cache_dir,
    fsync_dir,
    read_entry,
)
from repro.workloads.synthetic import CampaignArtifact, CampaignKey

__all__ = [
    "ArtifactStats",
    "ArtifactStore",
    "ARTIFACT_DIR_ENV",
    "STATS",
    "active_store",
    "activated_store",
    "campaign_stage",
    "default_artifact_dir",
    "ensure_active_store",
    "in_campaign_stage",
    "record_metrics",
    "stats_snapshot",
    "stats_delta",
]

ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"
QUARANTINE_DIR = "quarantine"
_SUFFIX = ".pkl"
_MAGIC = b"RPC1"  # same framing as the result cache


def default_artifact_dir() -> Path:
    """``REPRO_ARTIFACT_DIR`` env, else ``<result-cache-dir>/artifacts``."""
    env = os.environ.get(ARTIFACT_DIR_ENV)
    if env:
        return Path(env)
    return default_cache_dir() / "artifacts"


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
class ArtifactStore:
    """Checksummed pickle-per-campaign store; see module docstring."""

    root: Path = field(default_factory=default_artifact_dir)
    version: str = field(default_factory=code_version)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._memo: dict[CampaignKey, CampaignArtifact] = {}

    # -- keys ----------------------------------------------------------------
    @staticmethod
    def knobs_hash(key: CampaignKey) -> str:
        knobs = {k: v for k, v in key.asdict().items() if k != "seed"}
        material = canonical_params(knobs)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def path_for(self, key: CampaignKey) -> Path:
        name = f"{self.knobs_hash(key)}-s{key.seed}{_SUFFIX}"
        return self.root / self.version / name

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

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
        path = self.path_for(key)
        if not path.exists():
            return None
        started = time.monotonic()
        try:
            artifact = read_entry(path)
            if not isinstance(artifact, CampaignArtifact):
                raise ValueError(f"{path}: not a CampaignArtifact")
        except Exception:
            self._quarantine(path)
            return None
        STATS.loads += 1
        STATS.load_seconds += time.monotonic() - started
        self._memo[key] = artifact
        return artifact

    def _quarantine(self, path: Path) -> None:
        """Move a damaged artifact aside (forensics beat deletion)."""
        STATS.quarantined += 1
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_root / path.name)
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    # -- write side ----------------------------------------------------------
    def save(self, key: CampaignKey, artifact: CampaignArtifact) -> None:
        """Store atomically, then memoize.

        The entry is fsynced before the rename and its directory after, so a
        crash right after the campaign stage cannot drop an artifact the run
        already counted as written.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=_SUFFIX + ".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
            fsync_dir(path.parent)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        STATS.writes += 1
        self._memo[key] = artifact
        self._chaos_corrupt(path)

    def _chaos_corrupt(self, path: Path) -> None:
        """Chaos-harness hook: maybe damage the artifact we just wrote."""
        from repro.runner.chaos import chaos_from_env, maybe_corrupt_entry

        config = chaos_from_env()
        if config.corrupt:
            # The path stem is the stable (knobs-hash, seed) identity.
            if maybe_corrupt_entry(config, path, f"artifact/{path.stem}"):
                # A corrupted entry must not be served from this process's
                # memo either, or the damage would go unnoticed here while
                # other workers quarantine it — drop the memo so every
                # process sees the same (damaged) bytes.
                self._memo.pop(self._key_of(path), None)

    def _key_of(self, path: Path) -> Optional[CampaignKey]:
        for key in self._memo:
            if self.path_for(key) == path:
                return key
        return None

    # -- maintenance ---------------------------------------------------------
    def entries(self) -> list[Path]:
        """Every stored artifact, current code version or not."""
        if not self.root.is_dir():
            return []
        return sorted(
            path
            for path in self.root.glob(f"*/*{_SUFFIX}")
            if path.parent.name != QUARANTINE_DIR
        )

    def current_entries(self) -> list[Path]:
        version_dir = self.root / self.version
        if not version_dir.is_dir():
            return []
        return sorted(version_dir.glob(f"*{_SUFFIX}"))

    def quarantined_entries(self) -> list[Path]:
        if not self.quarantine_root.is_dir():
            return []
        return sorted(self.quarantine_root.glob(f"*{_SUFFIX}"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def gc(self) -> int:
        """Prune artifacts whose code-version no longer matches; return count.

        The version is the directory name, so a stale artifact is
        recognizable without deserializing it; emptied version directories
        are removed too.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        for version_dir in sorted(self.root.iterdir()):
            if not version_dir.is_dir() or version_dir.name in (
                self.version, QUARANTINE_DIR
            ):
                continue
            for path in version_dir.glob(f"*{_SUFFIX}"):
                path.unlink(missing_ok=True)
                removed += 1
            try:
                version_dir.rmdir()
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        removed = 0
        for path in self.entries() + self.quarantined_entries():
            path.unlink(missing_ok=True)
            removed += 1
        self._memo.clear()
        return removed

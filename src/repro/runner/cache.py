"""On-disk result cache for experiment tasks.

Layout: one checksummed pickle per task under the cache root, named by the
hex cache key.  The key is ``sha256(experiment_id | params-json | seed |
code-version)`` where *params-json* is a canonical JSON rendering (sorted
keys, tuples as lists) and *code-version* is a digest over every ``repro``
source file — so editing any module invalidates the whole cache rather than
serving results computed by old code.

Entry format (robustness first — the cache must never crash a sweep):

* bytes 0–3: magic ``b"RPC1"``;
* bytes 4–35: SHA-256 of the payload;
* bytes 36–: the pickled payload.

Reads verify the checksum; a damaged or foreign entry is **quarantined**
(moved into ``<root>/quarantine/``) and counted, never raised — the caller
just sees a miss and recomputes.  Writes go to a temp file *in the cache
directory* (same filesystem, so the final rename is atomic), are fsynced
before the rename, and the directory is fsynced after it: a crash mid-write
can never leave a torn entry behind.

The cache root resolves, in order: explicit argument, ``REPRO_CACHE_DIR``,
``$XDG_CACHE_HOME/repro``, ``~/.cache/repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.obs.metrics import CounterAttr, MetricsRegistry

__all__ = [
    "CacheStats",
    "ResultCache",
    "canonical_params",
    "code_version",
    "default_cache_dir",
    "fsync_dir",
    "read_entry",
]

_SUFFIX = ".pkl"
_MAGIC = b"RPC1"
_DIGEST_BYTES = 32
QUARANTINE_DIR = "quarantine"
_code_version_memo: Optional[str] = None


def code_version() -> str:
    """Digest of the installed ``repro`` package sources (memoized)."""
    global _code_version_memo
    if _code_version_memo is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version_memo = digest.hexdigest()[:16]
    return _code_version_memo


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def canonical_params(params: dict) -> str:
    """Stable JSON for hashing: sorted keys; tuples collapse to lists."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=repr)


def read_entry(path: Path) -> Any:
    """Load one checksummed entry; raises ``ValueError`` on any damage."""
    blob = Path(path).read_bytes()
    if len(blob) < len(_MAGIC) + _DIGEST_BYTES or not blob.startswith(_MAGIC):
        raise ValueError(f"{path}: not a checksummed cache entry")
    digest = blob[len(_MAGIC) : len(_MAGIC) + _DIGEST_BYTES]
    payload = blob[len(_MAGIC) + _DIGEST_BYTES :]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"{path}: checksum mismatch")
    return pickle.loads(payload)


def fsync_dir(directory: Path) -> None:
    """Fsync ``directory`` so a rename into it survives a crash."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class CacheStats:
    """Hit/miss/write/quarantine counters for one runner invocation.

    Registry-backed: the four counters are ``cache.*`` cells in a
    :class:`MetricsRegistry` (a private one by default, or the run-wide
    registry when ``metrics`` is passed), read and written through the
    same attribute API the old plain-int dataclass exposed.
    """

    hits = CounterAttr("_hits")
    misses = CounterAttr("_misses")
    writes = CounterAttr("_writes")
    quarantined = CounterAttr("_quarantined")

    def __init__(
        self,
        hits: int = 0,
        misses: int = 0,
        writes: int = 0,
        quarantined: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        registry = metrics if metrics is not None else MetricsRegistry()
        scope = registry.scoped("cache")
        self._hits = scope.counter("hits")
        self._misses = scope.counter("misses")
        self._writes = scope.counter("writes")
        self._quarantined = scope.counter("quarantined")
        for cell, value in (
            (self._hits, hits),
            (self._misses, misses),
            (self._writes, writes),
            (self._quarantined, quarantined),
        ):
            if value:
                cell.inc(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"writes={self.writes}, quarantined={self.quarantined})"
        )

    def __str__(self) -> str:
        text = f"{self.hits} hits, {self.misses} misses"
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        return text


@dataclass
class ResultCache:
    """Checksummed pickle-per-task cache; see module docstring."""

    root: Path = field(default_factory=default_cache_dir)
    version: str = field(default_factory=code_version)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def key(self, experiment_id: str, params: dict, seed: int) -> str:
        material = "\0".join(
            [experiment_id, canonical_params(params), str(int(seed)), self.version]
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def get(self, experiment_id: str, params: dict, seed: int) -> tuple[bool, Any]:
        """``(hit, value)`` — a damaged entry is quarantined and is a miss."""
        path = self._path(self.key(experiment_id, params, seed))
        if path.exists():
            try:
                value = read_entry(path)
            except Exception:
                self._quarantine(path)
            else:
                self.stats.hits += 1
                return True, value
        self.stats.misses += 1
        return False, None

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside (forensics beat deletion) and count it."""
        self.stats.quarantined += 1
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_root / path.name)
        except OSError:
            # Quarantine is best-effort; never let it raise into a sweep.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def put(self, experiment_id: str, params: dict, seed: int, value: Any) -> None:
        """Store atomically: temp file in the cache dir, fsync, rename, fsync.

        The temp file lives in the cache directory itself so the final
        ``os.replace`` stays on one filesystem (rename atomicity); the entry
        is fsynced before the rename and the directory after, so a crash at
        any instant leaves either the old state or the complete new entry —
        never a torn one.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        key = self.key(experiment_id, params, seed)
        path = self._path(key)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=_SUFFIX + ".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
            fsync_dir(self.root)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        self._chaos_corrupt(path, key)

    def _chaos_corrupt(self, path: Path, key: str) -> None:
        """Chaos-harness hook: maybe damage the entry we just wrote."""
        from repro.runner.chaos import chaos_from_env, maybe_corrupt_entry

        config = chaos_from_env()
        if config.corrupt:
            maybe_corrupt_entry(config, path, key)

    # -- maintenance ---------------------------------------------------------
    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*{_SUFFIX}"))

    def quarantined_entries(self) -> list[Path]:
        if not self.quarantine_root.is_dir():
            return []
        return sorted(self.quarantine_root.glob(f"*{_SUFFIX}"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry (quarantined ones included); returns the count."""
        removed = 0
        for path in self.entries() + self.quarantined_entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

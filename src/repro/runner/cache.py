"""One checksummed on-disk store with two namespaces: results and artifacts.

Layout under the store root (``--cache-dir``, else ``REPRO_CACHE_DIR``,
else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``)::

    <root>/results/<code-version>/<result-key>.pkl         # ResultCache
    <root>/artifacts/<code-version>/<knobs-hash>-s<seed>.pkl  # ArtifactStore
    <root>/quarantine/<namespace>/<name>.pkl               # damaged entries

*code-version* is a digest over every ``repro`` source file, so editing any
module starts a fresh version directory instead of serving entries computed
by old code, and :meth:`StoreNamespace.gc` prunes the other versions without
unpickling anything.  The result key is ``sha256(experiment_id |
params-json | seed)``, where *params-json* is a canonical JSON rendering
(sorted keys, tuples as lists).

Entry format (robustness first — the store must never crash a sweep):

* bytes 0–3: magic ``b"RPC1"``;
* bytes 4–35: SHA-256 of the payload;
* bytes 36–: the pickled payload.

Reads verify the checksum; a damaged or foreign entry is **quarantined**
and counted, never raised — the caller just sees a miss and recomputes.
Writes go to a temp file in the entry's own directory (same filesystem, so
the final rename is atomic), are fsynced before the rename, and the
directory is fsynced after it: a crash at any instant leaves either the old
state or the complete new entry, never a torn one.  The chaos harness's
``corrupt`` injection damages entries of both namespaces right after they
are written.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Optional

from repro.obs.metrics import CounterAttr, MetricsRegistry

__all__ = [
    "CacheStats",
    "ResultCache",
    "StoreNamespace",
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
class StoreNamespace:
    """One namespace of the store: entry I/O, quarantine and maintenance.

    Subclasses name the namespace and their entries; their ``stats`` object
    counts ``writes`` and ``quarantined`` entries.
    """

    namespace: ClassVar[str]
    root: Path = field(default_factory=default_cache_dir)
    version: str = field(default_factory=code_version)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def entry_path(self, name: str) -> Path:
        return self.root / self.namespace / self.version / f"{name}{_SUFFIX}"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR / self.namespace

    # -- entry I/O -----------------------------------------------------------
    def _read(self, path: Path, kind: type = object) -> tuple[bool, Any]:
        """``(hit, value)``; a damaged entry, or one not of ``kind``, is
        quarantined and is a miss."""
        if not path.exists():
            return False, None
        try:
            value = read_entry(path)
            if not isinstance(value, kind):
                raise ValueError(f"{path}: not a {kind.__name__}")
        except Exception:
            self._quarantine(path)
            return False, None
        return True, value

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

    def _write(self, path: Path, value: Any, chaos_site: str) -> bool:
        """Store ``value`` at ``path`` durably; True if chaos then damaged it.

        Temp file in the entry's directory, fsync, ``os.replace``, then fsync
        the directory (see module docstring).  ``chaos_site`` keys the chaos
        harness's corruption draw for this entry.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
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
        self.stats.writes += 1
        from repro.runner.chaos import chaos_from_env, maybe_corrupt_entry

        return maybe_corrupt_entry(chaos_from_env(), path, chaos_site)

    # -- maintenance ---------------------------------------------------------
    def entries(self) -> list[Path]:
        """Every entry of this namespace, current code version or not."""
        return sorted((self.root / self.namespace).glob(f"*/*{_SUFFIX}"))

    def current_entries(self) -> list[Path]:
        return [path for path in self.entries() if path.parent.name == self.version]

    def quarantined_entries(self) -> list[Path]:
        return sorted(self.quarantine_root.glob(f"*{_SUFFIX}"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def gc(self) -> int:
        """Prune entries of every other code version; returns the count.

        The version is the directory name, so a stale entry is recognized
        without unpickling it; emptied version directories go too.
        """
        removed = 0
        for path in self.entries():
            if path.parent.name != self.version:
                path.unlink(missing_ok=True)
                removed += 1
                try:
                    path.parent.rmdir()
                except OSError:
                    pass  # not empty yet
        return removed

    def clear(self) -> int:
        """Delete every entry (quarantined ones included); returns the count."""
        removed = 0
        for path in self.entries() + self.quarantined_entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed


@dataclass
class ResultCache(StoreNamespace):
    """The ``results`` namespace: one entry per task; see module docstring."""

    namespace: ClassVar[str] = "results"
    stats: CacheStats = field(default_factory=CacheStats)

    @staticmethod
    def key(experiment_id: str, params: dict, seed: int) -> str:
        material = "\0".join([experiment_id, canonical_params(params), str(int(seed))])
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def get(self, experiment_id: str, params: dict, seed: int) -> tuple[bool, Any]:
        """``(hit, value)`` — a damaged entry is quarantined and is a miss."""
        key = self.key(experiment_id, params, seed)
        hit, value = self._read(self.entry_path(key))
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return hit, value

    def put(self, experiment_id: str, params: dict, seed: int, value: Any) -> None:
        key = self.key(experiment_id, params, seed)
        self._write(self.entry_path(key), value, chaos_site=key)

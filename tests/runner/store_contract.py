"""Entry mechanics shared by both namespaces of the checksummed store.

Written once, collected twice: ``test_cache.py`` (results) and
``test_artifacts.py`` (artifacts) star-import these tests and each supplies
a ``namespace`` fixture, one of the two adapters below.  An adapter puts and
gets small integer values through its namespace's own public API, so the
suite checks how each namespace wires the shared code, not just the code.
"""

import os
import stat

from repro.runner.artifacts import ArtifactStore
from repro.runner.cache import ResultCache, read_entry
from repro.workloads.synthetic import CampaignArtifact, CampaignKey


class ResultsNamespace:
    """``ResultCache`` seen through put/get/path; ``n`` is the task seed."""

    def __init__(self, root):
        self.store = ResultCache(root=root)

    def put(self, n, value):
        self.store.put("T1", {"days": 5.0}, n, value)

    def get(self, n):
        hit, value = self.store.get("T1", {"days": 5.0}, n)
        return value if hit else None

    def path(self, n):
        return self.store.entry_path(self.store.key("T1", {"days": 5.0}, n))


class ArtifactsNamespace:
    """``ArtifactStore`` seen through put/get/path; ``n`` is the campaign seed.

    Reads go through a fresh store object, so the per-process memo never
    hides what is on disk; ``stats`` is process-global either way.
    """

    def __init__(self, root):
        self.store = ArtifactStore(root=root)

    @staticmethod
    def key(n):
        return CampaignKey.make(days=3.0, seed=n)

    def put(self, n, value):
        artifact = CampaignArtifact(
            key=self.key(n), records=[], job_truth={}, identity_truth={},
            active_identities=frozenset(), community_accounts=frozenset(),
            total_nu=float(value), transfers=(),
        )
        self.store.save(self.key(n), artifact)

    def get(self, n):
        artifact = ArtifactStore(root=self.store.root).load(self.key(n))
        return None if artifact is None else artifact.total_nu

    def path(self, n):
        return self.store.path_for(self.key(n))


def test_round_trip(namespace):
    store = namespace.store
    writes = store.stats.writes
    namespace.put(1, 42)
    assert namespace.get(1) == 42
    assert namespace.get(2) is None
    assert store.stats.writes == writes + 1
    (entry,) = store.entries()
    assert entry == namespace.path(1)
    assert entry.parent == store.root / store.namespace / store.version
    assert store.current_entries() == [entry]
    assert store.size_bytes() == entry.stat().st_size


def test_entries_are_loadable_checksummed_blobs(namespace):
    namespace.put(7, 3)
    (entry,) = namespace.store.entries()
    assert entry.read_bytes().startswith(b"RPC1")
    assert read_entry(entry) is not None


def _damaged_is_quarantined(namespace, damage):
    store = namespace.store
    namespace.put(1, 42)
    entry = namespace.path(1)
    entry.write_bytes(damage(entry.read_bytes()))
    damaged = entry.read_bytes()
    quarantined = store.stats.quarantined
    assert namespace.get(1) is None
    assert store.entries() == []
    assert store.stats.quarantined == quarantined + 1
    # Forensics beat deletion: the damaged bytes are kept aside.
    (kept,) = store.quarantined_entries()
    assert kept.parent == store.root / "quarantine" / store.namespace
    assert kept.read_bytes() == damaged


def test_corrupt_entry_is_a_miss_and_quarantined(namespace):
    _damaged_is_quarantined(namespace, lambda blob: b"not a pickle")


def test_bitflip_fails_checksum_and_quarantines(namespace):
    def flip(blob):
        blob = bytearray(blob)
        blob[len(blob) // 2] ^= 0xFF
        return bytes(blob)

    _damaged_is_quarantined(namespace, flip)


def test_truncated_entry_is_quarantined_not_raised(namespace):
    _damaged_is_quarantined(namespace, lambda blob: blob[:20])


def test_quarantined_entries_do_not_shadow_recomputes(namespace):
    namespace.put(1, 1)
    namespace.path(1).write_bytes(b"garbage")
    assert namespace.get(1) is None  # quarantines
    namespace.put(1, 2)
    assert namespace.get(1) == 2


def test_put_overwrites_atomically(namespace):
    namespace.put(1, 1)
    namespace.put(1, 2)
    assert namespace.get(1) == 2
    # No leftover temp files from the write-and-rename protocol.
    assert list(namespace.store.root.rglob("*.tmp")) == []


def test_save_fsyncs_the_entry_then_its_directory(namespace, monkeypatch):
    """Regression: the rename was not made durable, so a crash right after
    a write could lose an entry already counted as written."""
    synced = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    namespace.put(1, 1)
    assert synced == ["file", "dir"]


def test_clear_removes_everything(namespace):
    store = namespace.store
    for n in range(3):
        namespace.put(n, n)
    assert len(store.entries()) == 3
    assert store.clear() == 3
    assert store.entries() == []
    assert store.size_bytes() == 0
    assert namespace.get(0) is None


def test_clear_removes_quarantined_entries_too(namespace):
    namespace.put(1, 1)
    namespace.path(1).write_bytes(b"junk")
    namespace.get(1)
    assert namespace.store.clear() == 1
    assert namespace.store.quarantined_entries() == []


def _plant_stale_entry(store):
    stale = store.root / store.namespace / "0123456789abcdef" / "feedface.pkl"
    stale.parent.mkdir(parents=True)
    stale.write_bytes(b"old bytes")
    return stale


def test_gc_prunes_only_stale_code_versions(namespace):
    store = namespace.store
    namespace.put(1, 1)
    stale = _plant_stale_entry(store)
    assert len(store.entries()) == 2
    assert len(store.current_entries()) == 1

    assert store.gc() == 1
    assert not stale.exists()
    assert not stale.parent.exists()  # emptied version dir removed too
    assert namespace.get(1) == 1  # current version untouched


def test_gc_leaves_quarantine_alone(namespace):
    namespace.put(1, 1)
    namespace.path(1).write_bytes(b"junk")
    namespace.get(1)
    assert namespace.store.gc() == 0
    assert len(namespace.store.quarantined_entries()) == 1

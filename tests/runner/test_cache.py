"""Tests for the store's results namespace: key scheme, counters, framing.

The entry mechanics both namespaces share (round trip, quarantine, atomic
durable writes, clear, gc) come from :mod:`tests.runner.store_contract`.
"""

import pytest

from repro.runner.cache import (
    ResultCache,
    code_version,
    default_cache_dir,
    read_entry,
)
from tests.runner.store_contract import *  # noqa: F401,F403 - the shared suite
from tests.runner.store_contract import ResultsNamespace


@pytest.fixture
def namespace(tmp_path):
    return ResultsNamespace(tmp_path / "cache")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


def test_miss_on_empty_cache(cache):
    hit, value = cache.get("T1", {"days": 5.0}, 1)
    assert not hit and value is None
    assert cache.stats.misses == 1


def test_hits_misses_and_writes_are_counted(cache):
    cache.put("T1", {"days": 5.0}, 1, {"answer": 42})
    assert cache.get("T1", {"days": 5.0}, 1) == (True, {"answer": 42})
    cache.get("T1", {"days": 5.0}, 2)
    assert (cache.stats.hits, cache.stats.misses, cache.stats.writes) == (1, 1, 1)


def test_key_depends_on_every_component(cache):
    base = cache.key("T1", {"days": 5.0}, 1)
    assert cache.key("T2", {"days": 5.0}, 1) != base
    assert cache.key("T1", {"days": 6.0}, 1) != base
    assert cache.key("T1", {"days": 5.0}, 2) != base
    # The code version is the entry's directory, not part of its key.
    other_version = ResultCache(root=cache.root, version="deadbeef")
    assert other_version.key("T1", {"days": 5.0}, 1) == base
    assert other_version.entry_path(base) != cache.entry_path(base)


def test_key_is_insensitive_to_dict_ordering(cache):
    a = cache.key("T1", {"days": 5.0, "seed": 3}, 1)
    b = cache.key("T1", {"seed": 3, "days": 5.0}, 1)
    assert a == b


def test_key_distinguishes_tuple_knob_values(cache):
    a = cache.key("R1", {"seeds": (1, 2)}, 1)
    b = cache.key("R1", {"seeds": (1, 3)}, 1)
    assert a != b


def test_read_entry_rejects_foreign_files(tmp_path):
    foreign = tmp_path / "foreign.pkl"
    foreign.write_bytes(b"anything at all")
    with pytest.raises(ValueError, match="not a checksummed"):
        read_entry(foreign)


def test_code_version_is_stable_and_short():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"

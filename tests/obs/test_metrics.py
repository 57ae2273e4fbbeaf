"""Unit tests for the telemetry sidecar's metrics registry."""

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


def test_counter_increments_and_rejects_decrements():
    counter = Counter("x")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 5


def test_histogram_summarises_stream():
    histogram = Histogram("load")
    for value in (2.0, 0.5, 1.5):
        histogram.observe(value)
    assert histogram.count == 3
    assert histogram.total == 4.0
    assert histogram.min == 0.5
    assert histogram.max == 2.0


def test_registry_get_or_create_returns_the_same_cell():
    registry = MetricsRegistry()
    first = registry.counter("a.b")
    second = registry.counter("a.b")
    assert first is second
    first.inc()
    assert registry.as_dict() == {"a.b": 1}


def test_registry_rejects_kind_collisions():
    registry = MetricsRegistry()
    registry.counter("a")
    with pytest.raises(TypeError):
        registry.histogram("a")
    registry.histogram("b")
    with pytest.raises(TypeError):
        registry.counter("b")


def test_registry_rejects_bad_names():
    registry = MetricsRegistry()
    for bad in ("", ".x", "x."):
        with pytest.raises(ValueError):
            registry.counter(bad)


def test_as_dict_snapshot_is_sorted_and_plain():
    registry = MetricsRegistry()
    registry.counter("b").inc(2)
    registry.histogram("c").observe(3.0)
    registry.counter("a")
    snapshot = registry.as_dict()
    assert list(snapshot) == ["a", "b", "c"]
    assert snapshot["a"] == 0
    assert snapshot["b"] == 2
    assert snapshot["c"] == {"count": 1, "total": 3.0, "min": 3.0, "max": 3.0}

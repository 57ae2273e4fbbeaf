"""Unit tests for the central metrics registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    CounterAttr,
    Histogram,
    MetricsRegistry,
)


def test_counter_increments_and_rejects_decrements():
    counter = Counter("x")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    with pytest.raises(ValueError):
        counter.set(3)
    counter.set(9)
    assert counter.value == 9


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
    assert registry.value("a.b") == 1


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


def test_scoped_registry_prefixes_and_nests():
    registry = MetricsRegistry()
    scope = registry.scoped("gateway").scoped("nanohub")
    cell = scope.counter("jobs")
    cell.inc(7)
    assert registry.value("gateway.nanohub.jobs") == 7
    assert "gateway.nanohub.jobs" in registry
    with pytest.raises(ValueError):
        registry.scoped("")


def test_family_iterates_prefix_matches_only():
    registry = MetricsRegistry()
    registry.counter("ingest.feed.SiteA.records")
    registry.counter("ingest.feed.SiteB.records")
    registry.counter("ingest.packets")
    registry.counter("ingestion.other")
    names = [name for name, _cell in registry.family("ingest.feed")]
    assert names == [
        "ingest.feed.SiteA.records",
        "ingest.feed.SiteB.records",
    ]


def test_value_reports_histogram_totals_and_raises_on_unknown():
    registry = MetricsRegistry()
    registry.histogram("h").observe(2.5)
    assert registry.value("h") == 2.5
    with pytest.raises(KeyError):
        registry.value("missing")


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


def test_counter_attr_descriptor_keeps_attribute_api():
    class Component:
        sent = CounterAttr("_sent")

        def __init__(self, registry):
            self._sent = registry.counter("component.sent")

    registry = MetricsRegistry()
    component = Component(registry)
    component.sent += 3
    assert component.sent == 3
    assert registry.value("component.sent") == 3
    with pytest.raises(ValueError):
        component.sent -= 1
    assert type(Component.sent) is CounterAttr

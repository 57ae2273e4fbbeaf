"""Chrome trace-event exporter: structure and schema validation."""

import json

import pytest

from repro.obs.export import (
    chrome_trace_from_tracer,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace import SimTracer


class _Process:
    def __init__(self, name):
        self.name = name


def _tracer_with_spans():
    tracer = SimTracer()
    first = _Process("worker:0")
    second = _Process("outage:SiteA")
    tracer.on_process_start(first, 0.0)
    tracer.on_process_start(second, 5.0)
    tracer.on_process_end(first, 12.0)  # second stays open
    tracer.on_event(object(), 12.0, 0.001)
    return tracer


def test_tracer_export_validates_and_maps_types_to_tracks():
    trace = chrome_trace_from_tracer(_tracer_with_spans())
    validate_chrome_trace(trace)
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == 2
    by_name = {e["name"]: e for e in complete}
    assert by_name["worker:0"]["dur"] == 12.0
    assert by_name["outage:SiteA"]["dur"] == 0.0  # open span, not infinite
    assert by_name["worker:0"]["tid"] != by_name["outage:SiteA"]["tid"]
    thread_names = {
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert thread_names == {"worker", "outage"}


def test_write_chrome_trace_writes_json(tmp_path):
    path = write_chrome_trace(
        chrome_trace_from_tracer(_tracer_with_spans()),
        tmp_path / "out" / "trace.json",
    )
    loaded = json.loads(path.read_text(encoding="utf-8"))
    validate_chrome_trace(loaded)
    assert loaded["displayTimeUnit"] == "ms"


def test_validate_rejects_malformed_traces():
    with pytest.raises(ValueError):
        validate_chrome_trace([])
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": "nope"})
    base = {"name": "x", "pid": 1, "tid": 1, "ts": 0.0}
    with pytest.raises(ValueError, match="unknown phase"):
        validate_chrome_trace({"traceEvents": [{**base, "ph": "Z"}]})
    with pytest.raises(ValueError, match="needs 'dur'"):
        validate_chrome_trace({"traceEvents": [{**base, "ph": "X"}]})
    with pytest.raises(ValueError, match="non-integer"):
        validate_chrome_trace(
            {"traceEvents": [{**base, "ph": "i", "pid": "one"}]}
        )
    with pytest.raises(ValueError, match="non-numeric 'ts'"):
        validate_chrome_trace(
            {"traceEvents": [{"name": "x", "pid": 1, "tid": 1, "ph": "i"}]}
        )

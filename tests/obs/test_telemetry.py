"""Telemetry sidecar: round-trip, schema validation, timings view."""

import pytest

from repro.obs.telemetry import (
    SCHEMA,
    Telemetry,
    read_sidecar,
    sidecar_summary,
    timings_lines,
    validate_sidecar,
)


def _populated_telemetry():
    telemetry = Telemetry(run_id="run-1")
    telemetry.event("cache-hit", key="abc", experiment="T1")
    telemetry.add_span("task", 100.0, 2.5, experiment="T1", status="ok")
    telemetry.metrics.counter("runner.retries").inc(3)
    return telemetry


def test_sidecar_roundtrip(tmp_path):
    telemetry = _populated_telemetry()
    path = telemetry.write_jsonl(tmp_path / "sub" / "telemetry.jsonl")
    records = read_sidecar(path)
    assert records[0]["type"] == "header"
    assert records[0]["schema"] == SCHEMA
    assert records[0]["run_id"] == "run-1"
    kinds = [record["type"] for record in records[1:]]
    assert kinds == ["event", "span", "summary"]
    summary = sidecar_summary(records)
    assert summary["metrics"]["runner.retries"] == 3


def test_validate_rejects_missing_header():
    with pytest.raises(ValueError):
        validate_sidecar([])
    with pytest.raises(ValueError):
        validate_sidecar([{"type": "event", "name": "x", "at": 1.0}])


def test_validate_rejects_duplicate_header():
    telemetry = Telemetry()
    records = telemetry.all_records()
    with pytest.raises(ValueError, match="duplicate header"):
        validate_sidecar([records[0], records[0], records[-1]])


def test_validate_rejects_span_defects():
    header = Telemetry().header()
    summary = Telemetry().finish()
    bad_duration = {"type": "span", "name": "x", "start": 1.0, "duration": -1}
    with pytest.raises(ValueError, match="negative"):
        validate_sidecar([header, bad_duration, summary])
    no_name = {"type": "span", "start": 1.0, "duration": 1.0}
    with pytest.raises(ValueError, match="without a name"):
        validate_sidecar([header, no_name, summary])


def test_validate_requires_exactly_one_terminal_summary():
    telemetry = Telemetry()
    records = telemetry.all_records()
    with pytest.raises(ValueError, match="exactly one terminal wall summary"):
        validate_sidecar(records[:-1])
    with pytest.raises(ValueError, match="exactly one terminal wall summary"):
        validate_sidecar(records + [records[-1]])


def test_validate_rejects_unknown_types_and_domains():
    header = Telemetry().header()
    summary = Telemetry().finish()
    with pytest.raises(ValueError, match="unknown record type"):
        validate_sidecar([header, {"type": "mystery"}, summary])
    with pytest.raises(ValueError, match="unknown domain"):
        validate_sidecar(
            [header, {"type": "summary", "domain": "dream"}, summary]
        )


def test_timings_lines_match_the_legacy_stderr_shape():
    summary = {
        "stage_seconds": {"plan": 0.004, "campaign": 5.037, "measure": 0.131},
        "campaign_stats": {
            "distinct": 3, "simulated": 3, "reused": 0,
            "fallbacks": 0, "loads": 2, "load_seconds": 0.25,
        },
    }
    lines = timings_lines(summary)
    assert lines == [
        "[timings: plan: 0.00s, campaign: 5.04s, measure: 0.13s]",
        "[campaigns: 3 distinct, 3 simulated, 0 reused, "
        "0 fallback simulations, 2 artifact loads (0.25s)]",
    ]


def test_timings_lines_handle_empty_summary():
    lines = timings_lines({})
    assert lines[0] == "[timings: none]"
    assert "0 distinct" in lines[1]

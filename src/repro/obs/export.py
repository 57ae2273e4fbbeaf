"""Chrome trace-event JSON exporter for the simulation trace domain.

Produces the ``chrome://tracing`` / Perfetto "JSON Object Format": a dict
with a ``traceEvents`` list of complete events (``"ph": "X"``, timestamps
in microseconds).  Its input is the sim-domain process spans of a
:class:`~repro.obs.trace.SimTracer` (``repro profile --chrome``): one track
(``tid``) per process type, with one simulated second rendered as one trace
microsecond so multi-day campaigns stay navigable.

The exporter is a sink for diagnostics only; nothing under ``results/``
reads it.  :func:`validate_chrome_trace` is the schema check the test
suite and the CI telemetry job run over exported files.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "chrome_trace_from_tracer",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: Phases we emit / accept: complete spans, instant events, metadata.
_KNOWN_PHASES = {"X", "i", "I", "M"}

#: One simulated second becomes one trace microsecond — campaigns span
#: simulated weeks, and viewers choke on 10^12-microsecond extents.
_SIM_SECONDS_TO_US = 1.0

#: Every track belongs to one trace process, the simulation.
_PID = 1


def chrome_trace_from_tracer(tracer) -> dict:
    """Render a :class:`SimTracer`'s process spans as a Chrome trace."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "sim-time"},
        }
    ]
    tids: dict[str, int] = {}
    for kind, name, start, end in tracer.process_spans:
        tid = tids.setdefault(kind, len(tids) + 1)
        events.append(
            {
                "name": name,
                "cat": kind,
                "ph": "X",
                "ts": start * _SIM_SECONDS_TO_US,
                # Open spans (process still alive at teardown) render as
                # zero-length rather than stretching to infinity.
                "dur": ((end - start) if end is not None else 0.0)
                * _SIM_SECONDS_TO_US,
                "pid": _PID,
                "tid": tid,
            }
        )
    for kind, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": kind},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {"domain": "sim", "events_total": tracer.events_total},
    }


def write_chrome_trace(trace: dict, path: Path | str) -> Path:
    validate_chrome_trace(trace)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, sort_keys=True), encoding="utf-8")
    return path


def validate_chrome_trace(trace: dict) -> None:
    """Trace-event JSON schema check (raises ``ValueError``)."""
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("chrome trace must be an object with 'traceEvents'")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}]: not an object")
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            raise ValueError(f"traceEvents[{index}]: unknown phase {phase!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"traceEvents[{index}]: missing event name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError(
                    f"traceEvents[{index}]: non-integer {field!r}"
                )
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"traceEvents[{index}]: non-numeric 'ts'")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                raise ValueError(
                    f"traceEvents[{index}]: complete event needs 'dur' >= 0"
                )

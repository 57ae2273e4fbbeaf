"""Two-domain tracing: deterministic sim-time, sidecar-only wall-time.

Every quantity this tracer records lives in exactly one of two domains, and
the domain decides where the data may flow:

* **sim-time** — event counts by type, process resume counts by process
  type, event-heap high-water marks, and process lifetime spans measured on
  the *simulated* clock.  These are pure functions of the scenario seed:
  safe to assert on in tests, safe to diff across ``--jobs`` values, safe
  (in principle) to print — though reports still omit them, because report
  bytes predate this layer and must not change.
* **wall-time** — per-event-type wall-clock shares measured around the
  kernel's callback dispatch.  Nondeterministic by nature (scheduling,
  cache temperature, host load); it exists only to rank hot paths for the
  vectorization work and is confined to the telemetry sidecar and the
  ``repro profile`` diagnostic output.  It must never reach a report.

The tracer attaches to the kernel through :func:`repro.sim.engine.set_default_tracer`
(or a ``Simulator(tracer=...)`` argument); with no tracer installed the
kernel pays one ``is None`` check per step and nothing else.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Optional

__all__ = ["SimTracer", "process_type", "traced_simulation"]

_NUMERIC_SUFFIX = re.compile(r"-\d+$")

#: Cap on retained per-process lifetime spans: long campaigns spawn one
#: process per user plus transient ack-watch/transit processes; the hot-path
#: ranking needs aggregates, not a million span rows.
DEFAULT_SPAN_CAP = 5000


def process_type(name: str) -> str:
    """Collapse a process instance name to its type.

    Process names follow ``<type>:<instance>`` (``outage:SiteA``,
    ``amie-feed:SiteB``) or ``<type>-<serial>`` (``recover-523``).  A numeric
    suffix is an instance serial, so it is collapsed: sim-domain aggregates
    count per process type.
    """
    return _NUMERIC_SUFFIX.sub("", name.split(":", 1)[0])


class SimTracer:
    """Collects both trace domains for one (or more) simulator runs.

    One tracer may observe several :class:`~repro.sim.Simulator` instances
    (a sweep's campaigns); counts accumulate.  The deterministic slice is
    exposed by :meth:`sim_summary`; the wall-clock fields stay out of it.
    """

    def __init__(self, span_cap: int = DEFAULT_SPAN_CAP) -> None:
        # -- sim-time domain (deterministic) --
        self.events_total = 0
        self.events_by_type: dict[str, int] = {}
        self.resumes_by_process: dict[str, int] = {}
        self.heap_high_water = 0
        self.span_cap = span_cap
        #: retained process lifetime spans: (type, name, start, end) sim-time
        self.process_spans: list[tuple[str, str, float, Optional[float]]] = []
        self.spans_dropped = 0
        self._open_spans: dict[int, int] = {}  # id(process) -> span index
        # -- wall-time domain (sidecar/profile only) --
        self.wall_by_event_type: dict[str, float] = {}
        self.wall_total = 0.0

    # -- kernel hooks (hot path: keep them cheap) -----------------------------
    def on_schedule(self, heap_size: int) -> None:
        if heap_size > self.heap_high_water:
            self.heap_high_water = heap_size

    def on_event(self, event, now: float, wall: float) -> None:
        kind = type(event).__name__
        self.events_total += 1
        self.events_by_type[kind] = self.events_by_type.get(kind, 0) + 1
        self.wall_by_event_type[kind] = (
            self.wall_by_event_type.get(kind, 0.0) + wall
        )
        self.wall_total += wall

    def on_resume(self, process, now: float) -> None:
        kind = process_type(process.name)
        self.resumes_by_process[kind] = self.resumes_by_process.get(kind, 0) + 1

    def on_process_start(self, process, now: float) -> None:
        if len(self.process_spans) >= self.span_cap:
            self.spans_dropped += 1
            return
        self._open_spans[id(process)] = len(self.process_spans)
        self.process_spans.append(
            (process_type(process.name), process.name, now, None)
        )

    def on_process_end(self, process, now: float) -> None:
        index = self._open_spans.pop(id(process), None)
        if index is None:
            return
        kind, name, start, _ = self.process_spans[index]
        self.process_spans[index] = (kind, name, start, now)

    # -- summaries ------------------------------------------------------------
    def sim_summary(self) -> dict:
        """The deterministic slice: identical for identical seeds."""
        return {
            "domain": "sim",
            "events_total": self.events_total,
            "events_by_type": dict(sorted(self.events_by_type.items())),
            "resumes_by_process": dict(sorted(self.resumes_by_process.items())),
            "heap_high_water": self.heap_high_water,
            "process_spans_retained": len(self.process_spans),
            "process_spans_dropped": self.spans_dropped,
        }

    def hot_events(self, top: int = 10) -> list[tuple[str, int, float]]:
        """``(event type, sim count, wall share)`` rows, busiest first.

        The ordering key is the deterministic sim-event count; the wall
        share rides along as diagnostic color.
        """
        rows = []
        for kind, count in self.events_by_type.items():
            wall = self.wall_by_event_type.get(kind, 0.0)
            share = wall / self.wall_total if self.wall_total > 0 else 0.0
            rows.append((kind, count, share))
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows[:top]

    def hot_processes(self, top: int = 10) -> list[tuple[str, int]]:
        """``(process type, resume count)`` rows, busiest first."""
        rows = sorted(
            self.resumes_by_process.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return rows[:top]


@contextmanager
def traced_simulation(span_cap: int = DEFAULT_SPAN_CAP):
    """Install a fresh :class:`SimTracer` as the kernel default, yield it.

    Every :class:`~repro.sim.Simulator` constructed inside the ``with``
    block reports to the yielded tracer; the previous default (usually
    ``None``) is restored on exit.  This is how ``repro profile`` and the
    benchmark harness observe simulations built many layers below them.
    """
    from repro.sim import engine

    tracer = SimTracer(span_cap=span_cap)
    previous = engine.default_tracer()
    engine.set_default_tracer(tracer)
    try:
        yield tracer
    finally:
        engine.set_default_tracer(previous)

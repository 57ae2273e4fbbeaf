"""Observability: two-domain tracing, metrics registry, telemetry sidecar.

Layer contract: ``repro.obs`` may import from anywhere in the package, but
``repro.sim`` must never import ``repro.obs`` — the kernel exposes a
duck-typed tracer slot (:func:`repro.sim.engine.set_default_tracer`) and
this package fills it.  Nothing in this package may influence report
bytes; that invariant is CI-enforced as a byte-diff.
"""

from repro.obs.export import (
    chrome_trace_from_tracer,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    CounterAttr,
    Histogram,
    MetricsRegistry,
    ScopedRegistry,
)
from repro.obs.profile import (
    profile_experiment,
    render_hot_path_table,
    render_stats,
    resolve_experiment_id,
)
from repro.obs.telemetry import (
    SCHEMA,
    Telemetry,
    read_sidecar,
    sidecar_summary,
    timings_lines,
    validate_sidecar,
)
from repro.obs.trace import SimTracer, process_type, traced_simulation

__all__ = [
    "SCHEMA",
    "Counter",
    "CounterAttr",
    "Histogram",
    "MetricsRegistry",
    "ScopedRegistry",
    "SimTracer",
    "Telemetry",
    "chrome_trace_from_tracer",
    "process_type",
    "profile_experiment",
    "read_sidecar",
    "render_hot_path_table",
    "render_stats",
    "resolve_experiment_id",
    "sidecar_summary",
    "timings_lines",
    "traced_simulation",
    "validate_chrome_trace",
    "validate_sidecar",
    "write_chrome_trace",
]

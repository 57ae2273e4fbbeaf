"""Observability: two-domain tracing, metrics registry, telemetry sidecar.

Layer contract: ``repro.obs`` may import from anywhere in the package, but
only two modules outside it import ``repro.obs``: the CLI
(``repro.__main__``) and the runner (``repro.runner.parallel``, whose
worker imports :func:`~repro.obs.trace.traced_simulation` lazily when a
task's simulations are traced).  The simulated world never does: the
kernel exposes a duck-typed tracer slot
(:func:`repro.sim.engine.set_default_tracer`) that this package fills, and
components keep their counters as plain attributes.
``tests/test_layering.py`` holds the contract.  Nothing in this package may
influence report bytes; that invariant is CI-enforced as a byte-diff.
"""

from repro.obs.export import (
    chrome_trace_from_tracer,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
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
    "Histogram",
    "MetricsRegistry",
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

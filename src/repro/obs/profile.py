"""`repro profile` / `repro stats` rendering: the hot-path table.

This is the diagnostic face of the observability layer: run one experiment
serially under a :class:`~repro.obs.trace.SimTracer`, then render the
event-kernel hot paths (top event types and process types by deterministic
sim-event count, with wall-clock share as nondeterministic color).  The
ROADMAP's scale-tier item starts "profile the event kernel" — this table
is the ranking that decides what gets vectorized first.

Everything here writes to stderr/stdout of the diagnostic subcommands
only; nothing in this module is on the report path.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.trace import DEFAULT_SPAN_CAP, SimTracer, traced_simulation

__all__ = [
    "profile_experiment",
    "render_hot_path_table",
    "render_stats",
    "resolve_experiment_id",
]


def resolve_experiment_id(name: str) -> str:
    """Map a user spelling to a registered experiment id.

    Accepts the canonical id (``T2``), lowercase (``t2``), and the
    descriptive form used in prose (``t2_usage`` → ``T2``).
    """
    from repro.experiments.base import registry

    candidate = name.upper()
    if candidate in registry:
        return candidate
    head = candidate.split("_", 1)[0]
    if head in registry:
        return head
    raise KeyError(
        f"unknown experiment {name!r}; known: {sorted(registry)}"
    )


def profile_experiment(
    experiment_id: str,
    knobs: Optional[dict] = None,
    span_cap: int = DEFAULT_SPAN_CAP,
) -> SimTracer:
    """Run ``experiment_id`` serially under a fresh tracer; return it.

    The shared campaign memo is cleared first so the profile measures real
    simulation work instead of replaying a warm in-process cache.
    """
    from repro.experiments import base

    base._campaign_cache.clear()
    with traced_simulation(span_cap=span_cap) as tracer:
        base.run_experiment(experiment_id, **(knobs or {}))
    return tracer


def render_hot_path_table(tracer: SimTracer, top: int = 10) -> str:
    """The event-kernel hot-path table (sim counts rank, wall share colors)."""
    lines = [
        "event kernel hot paths",
        "======================",
        "",
        f"sim events total:     {tracer.events_total}",
        f"event heap high-water: {tracer.heap_high_water}",
        f"wall in callbacks:    {tracer.wall_total:.3f}s"
        " (nondeterministic; diagnostic only)",
        "",
        f"top event types (by sim-event count, top {top})",
        f"  {'rank':>4}  {'event type':<24} {'sim events':>12}  {'wall share':>10}",
    ]
    for rank, (kind, count, share) in enumerate(tracer.hot_events(top), 1):
        lines.append(
            f"  {rank:>4}  {kind:<24} {count:>12}  {share:>9.1%}"
        )
    if tracer.events_total == 0:
        lines.append("  (no events traced)")
    lines += [
        "",
        f"top process types (by resume count, top {top})",
        f"  {'rank':>4}  {'process type':<24} {'resumes':>12}",
    ]
    processes = tracer.hot_processes(top)
    for rank, (kind, count) in enumerate(processes, 1):
        lines.append(f"  {rank:>4}  {kind:<24} {count:>12}")
    if not processes:
        lines.append("  (no process resumes traced)")
    if tracer.spans_dropped:
        lines += [
            "",
            f"note: {tracer.spans_dropped} process spans dropped "
            f"(cap {tracer.span_cap}); aggregates above are complete",
        ]
    return "\n".join(lines) + "\n"


def render_stats(summary: dict, run_id: Optional[str] = None) -> str:
    """Render a sidecar's terminal wall summary for ``repro stats``."""
    lines = ["run statistics", "=============="]
    if run_id:
        lines.append(f"run id: {run_id}")
    stage_seconds = summary.get("stage_seconds") or {}
    if stage_seconds:
        lines += ["", "stage wall-clock:"]
        for stage, seconds in stage_seconds.items():
            lines.append(f"  {stage:<10} {seconds:>8.2f}s")
    stats = summary.get("campaign_stats") or {}
    if stats:
        lines += [
            "",
            "campaigns:",
            f"  distinct    {stats.get('distinct', 0):>6}",
            f"  simulated   {stats.get('simulated', 0):>6}",
            f"  reused      {stats.get('reused', 0):>6}",
            f"  fallbacks   {stats.get('fallbacks', 0):>6}",
            f"  loads       {stats.get('loads', 0):>6}"
            f"  ({stats.get('load_seconds', 0.0):.2f}s)",
        ]
    counters = summary.get("counters") or {}
    if counters:
        lines += ["", "runner counters:"]
        for name in sorted(counters):
            lines.append(f"  {name:<18} {counters[name]:>6}")
    cache = summary.get("cache")
    if cache is not None:
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        rate = cache.get("hits", 0) / lookups if lookups else 0.0
        lines += [
            "",
            "result cache:",
            f"  hits        {cache.get('hits', 0):>6}",
            f"  misses      {cache.get('misses', 0):>6}",
            f"  writes      {cache.get('writes', 0):>6}",
            f"  quarantined {cache.get('quarantined', 0):>6}",
            f"  hit rate    {rate:>6.1%}",
        ]
    metrics = summary.get("metrics") or {}
    if metrics:
        lines += ["", f"metrics registry: {len(metrics)} instruments"]
        for name in sorted(metrics):
            value = metrics[name]
            if isinstance(value, dict):
                rendered = ", ".join(
                    f"{key}={value[key]}" for key in sorted(value)
                )
                lines.append(f"  {name} = {{{rendered}}}")
            else:
                lines.append(f"  {name} = {value}")
    return "\n".join(lines) + "\n"

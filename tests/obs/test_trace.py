"""Two-domain tracer: determinism of the sim slice, kernel neutrality."""

from repro.obs.trace import SimTracer, process_type, traced_simulation
from repro.sim import Simulator, engine


def _toy_workload(sim, log):
    """A small multi-process workload exercising timeouts and events."""

    gate = sim.event()

    def worker(worker_id):
        for step in range(3):
            yield sim.timeout(1.0 + worker_id)
            log.append((sim.now, f"worker-{worker_id}", step))
        if worker_id == 0:
            gate.succeed()

    def watcher():
        yield gate
        log.append((sim.now, "watcher", "woke"))

    for worker_id in range(3):
        sim.process(worker(worker_id), name=f"worker:{worker_id}")
    sim.process(watcher(), name="watcher:main")


def _run(tracer=None):
    log = []
    sim = Simulator(tracer=tracer)
    _toy_workload(sim, log)
    sim.run(until=20.0)
    return log


def test_process_type_collapses_instance_names():
    assert process_type("outage:SiteA") == "outage"
    assert process_type("plain") == "plain"
    assert process_type("job-523") == "job"  # instance serials collapse
    assert process_type("sched-wake") == "sched-wake"


def test_tracing_does_not_change_simulation_outcomes():
    untraced = _run()
    traced = _run(SimTracer())
    assert traced == untraced


def test_sim_summary_is_identical_across_runs():
    first = SimTracer()
    second = SimTracer()
    _run(first)
    _run(second)
    assert first.sim_summary() == second.sim_summary()
    # Wall-clock fields stay out of the deterministic slice.
    assert first.sim_summary()["domain"] == "sim"
    assert "wall_total_seconds" not in first.sim_summary()
    assert first.events_total > 0
    assert first.heap_high_water > 0
    assert first.resumes_by_process["worker"] >= 9


def test_process_spans_record_sim_lifetimes():
    tracer = SimTracer()
    _run(tracer)
    spans = {name: (start, end) for _k, name, start, end in tracer.process_spans}
    start, end = spans["worker:0"]
    assert start == 0.0
    assert end == 3.0  # three 1-second timeouts
    assert spans["watcher:main"][1] == 3.0  # woke by worker:0's gate


def test_span_cap_bounds_retention_but_not_aggregates():
    tracer = SimTracer(span_cap=2)
    _run(tracer)
    assert len(tracer.process_spans) == 2
    assert tracer.spans_dropped == 2  # 4 processes, 2 retained
    summary = tracer.sim_summary()
    assert summary["process_spans_retained"] == 2
    assert summary["process_spans_dropped"] == 2
    # Aggregates still see every process.
    assert sum(tracer.resumes_by_process.values()) > 4


def test_traced_simulation_installs_and_restores_default():
    assert engine.default_tracer() is None
    with traced_simulation() as tracer:
        assert engine.default_tracer() is tracer
        _toy = Simulator()
        assert _toy._tracer is tracer
    assert engine.default_tracer() is None


def test_hot_events_rank_by_sim_count():
    tracer = SimTracer()
    _run(tracer)
    rows = tracer.hot_events(top=3)
    counts = [count for _kind, count, _share in rows]
    assert counts == sorted(counts, reverse=True)
    shares = [share for _kind, _count, share in tracer.hot_events(top=100)]
    assert all(0.0 <= share <= 1.0 for share in shares)


def test_traced_scenario_sim_slice_is_seed_stable():
    """The deterministic slice of a real campaign is a pure seed function.

    This is the jobs-independence guarantee in microcosm: workers at any
    ``--jobs`` value run this same serial simulation per campaign, so equal
    summaries here mean equal sim-domain telemetry everywhere.
    """
    from repro.workloads.synthetic import run_scenario

    summaries = []
    for _attempt in range(2):
        with traced_simulation() as tracer:
            run_scenario(days=1.0, seed=3)
        summaries.append(tracer.sim_summary())
    assert summaries[0] == summaries[1]
    assert summaries[0]["events_total"] > 0

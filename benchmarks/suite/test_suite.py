"""Tests of the benchmark's own machinery: ``python -m pytest benchmarks/suite -q``."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
sys.path[:0] = [str(SUITE), str(SUITE.parents[1] / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LayerTotals, SpanRecorder  # noqa: E402

#: Work counts of the 2-day canonical campaign (seed 1).  They depend only
#: on the simulated input: a change that moves one changed the work done.
EXPECTED_COUNTS = {
    "scheduler.passes": 2009,
    "scheduler.profile_builds": 6082,
    "scheduler.available_during_calls": 19037,
    "sim.events": 6870,
    "sim.heap_high_water": 149,
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_excludes_nested_wrapped_calls():
    clock = FakeClock()

    class Leaf:
        def work(self):
            clock.now += 4.0

    class Middle:
        def step(self, leaf):
            clock.now += 1.0
            leaf.work()
            leaf.work()

    class Top:
        def run(self, middle, leaf):
            clock.now += 2.0
            middle.step(leaf)
            clock.now += 3.0

    with SpanRecorder(clock=clock) as recorder:
        recorder.wrap_method(Top, "run", "top")
        recorder.wrap_method(Middle, "step", "top.middle")
        recorder.wrap_method(Leaf, "work", "leaf")
        Top().run(Middle(), Leaf())
        Leaf().work()

    assert recorder.totals("top") == LayerTotals(calls=1, total_s=14.0, self_s=5.0)
    assert recorder.totals("top.middle") == LayerTotals(1, 9.0, 1.0)
    assert recorder.totals("leaf") == LayerTotals(3, 12.0, 12.0)
    assert recorder.self_seconds("top") == 6.0


def test_wrappers_restore_the_original_entry_points():
    from repro.experiments import base
    from repro.infra.scheduler.base import BatchScheduler
    from repro.infra.scheduler.profile import CapacityProfile
    from repro.runner import parallel
    from repro.sim.engine import Simulator
    from repro.workloads import synthetic

    owners = (BatchScheduler, CapacityProfile, Simulator, synthetic, parallel, base)
    before = [dict(vars(owner)) for owner in owners]
    with SpanRecorder() as recorder:
        layers.install(recorder)
        assert Simulator.run is not before[2]["run"]
        assert parallel.execute_task is not before[4]["execute_task"]
    for owner, snapshot in zip(owners, before):
        assert dict(vars(owner)) == snapshot, owner


def _campaign(traced: bool):
    from repro.obs import traced_simulation
    from repro.workloads import synthetic

    config = synthetic.CampaignKey.make(days=2).config()
    if not traced:
        return synthetic.run_scenario(config), None
    with SpanRecorder() as recorder, traced_simulation() as tracer:
        layers.install(recorder)
        started = time.perf_counter()
        result = synthetic.run_scenario(config)
        wall = time.perf_counter() - started
    return result, layers.traced_metrics(recorder, tracer, wall)


def test_traced_campaign_matches_untraced_and_counts_repeat():
    from repro.scenarios import check_scenario

    plain, _ = _campaign(traced=False)
    first, counts = _campaign(traced=True)
    second, again = _campaign(traced=True)

    digest = workloads.record_digest(plain.records)
    assert workloads.record_digest(first.records) == digest
    assert workloads.record_digest(second.records) == digest
    assert check_scenario(first).ok
    assert layers.counts_repeat([counts, again])
    assert {name: counts[name] for name in EXPECTED_COUNTS} == EXPECTED_COUNTS
    shares = [value for value in counts.values() if isinstance(value, float)]
    assert all(0.0 <= share <= 1.0 for share in shares)


def test_emitted_metrics_are_the_declared_ones():
    spec = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())
    _, traced = _campaign(traced=True)
    emitted = {
        *traced, *layers.NO_RUNNER, "obs.traced_rep_s", "obs.trace_overhead_frac",
    }
    assert emitted == {metric["name"] for metric in spec["per_layer"]}
    slow = 2 * run.PROBE_REFERENCE_S
    rep = {"traced": False, "wall_s": 2.0, "cpu_s": 1.5, "probe_s": slow}
    detail = {"reps": [rep], "peak_rss_mb": 60.0,
              "setup": [{"wall_s": 0.4, "probe_s": slow}]}
    untraced = run.summarize(detail, trace=False)
    assert untraced == {"wall_s": 1.0, "cpu_s": 0.75, "setup_s": 0.2, "peak_rss_mb": 60.0}
    assert set(untraced) == {metric["name"] for metric in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

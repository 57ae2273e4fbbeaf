"""Determinism properties of the sim kernel and the parallel runner.

The reproducibility contract this repo leans on everywhere: a fixed master
seed fully determines the event trace, the accounting record stream (job and
group ids included: they are per simulation) and the final metrics — across
repeated runs in one process, and across serial vs process-pool execution of
the same experiment.
"""

from hypothesis import given, settings, strategies as st

from repro.experiments.base import run_experiment
from repro.runner import ParallelRunner
from repro.sim import RandomStreams, Simulator
from repro.workloads import run_scenario
from repro.workloads.synthetic import CampaignArtifact, CampaignKey


def _metrics_signature(result):
    return {
        "records": len(result.records),
        "charged": sum(r.charged_nu for r in result.records),
        "final_time": result.sim.now,
    }


# -- kernel-level event traces -------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(2, 20))
def test_seeded_event_trace_is_identical_across_runs(seed, n_procs):
    """Property: a seeded random workload fires the same (time, tag) trace
    every time it is simulated."""

    def trace_once():
        sim = Simulator()
        rng = RandomStreams(seed=seed).stream("delays")
        fired = []

        def waiter(sim, tag):
            yield sim.timeout(float(rng.random() * 100.0))
            fired.append((sim.now, tag))
            if rng.random() < 0.5:
                yield sim.timeout(float(rng.random() * 10.0))
                fired.append((sim.now, -tag))

        for tag in range(1, n_procs + 1):
            sim.process(waiter(sim, tag))
        sim.run()
        return fired

    assert trace_once() == trace_once()


# -- full-scenario record streams ----------------------------------------------

@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_same_seed_reproduces_scenario_records_and_metrics(seed):
    """Property: same seed ⇒ identical usage records + final metrics."""
    first = run_scenario(days=1.0, seed=seed)
    second = run_scenario(days=1.0, seed=seed)
    assert first.records == second.records
    assert _metrics_signature(first) == _metrics_signature(second)


def test_different_seeds_produce_different_activity():
    a = run_scenario(days=1.0, seed=1)
    b = run_scenario(days=1.0, seed=2)
    assert a.records != b.records


def test_campaign_does_not_depend_on_what_the_process_simulated_before():
    """B, then a different campaign A, then B again: both Bs are equal."""

    def artifact(seed):
        key = CampaignKey.make(days=1.0, seed=seed, population_scale=0.2)
        return CampaignArtifact.from_result(run_scenario(key.config()), key=key)

    first = artifact(seed=4)
    artifact(seed=3)
    assert artifact(seed=4) == first


# -- serial vs parallel --------------------------------------------------------

def test_parallel_execution_is_byte_identical_to_serial():
    """The runner contract: R1's replicate fan-out merged from a 2-worker
    process pool matches the inline serial path exactly."""
    knobs = dict(days=1.0, seeds=(1, 2))
    serial = run_experiment("R1", **knobs)
    parallel = ParallelRunner(jobs=2, use_cache=False).run("R1", **knobs)
    assert parallel.text == serial.text
    assert parallel.data == serial.data


def test_single_worker_runner_matches_serial_path():
    knobs = dict(days=1.0, seed=5, coverages=(0.0, 1.0))
    serial = run_experiment("F6", **knobs)
    inline = ParallelRunner(jobs=1, use_cache=False).run("F6", **knobs)
    assert inline.text == serial.text
    assert inline.data == serial.data

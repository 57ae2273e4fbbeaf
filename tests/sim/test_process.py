"""Tests for processes, events and condition events."""

import pytest

from repro.sim import AllOf, AnyOf, Simulator


def test_process_return_value_is_event_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return 42

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == 42
    assert proc.ok


def test_process_can_wait_on_process():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(3.0)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        log.append((sim.now, result))

    sim.process(parent(sim))
    sim.run()
    assert log == [(3.0, "child-result")]


def test_waiting_on_finished_process_resumes_immediately():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(1.0)
        return "done"

    def parent(sim, child_proc):
        yield sim.timeout(10.0)
        result = yield child_proc
        log.append((sim.now, result))

    child_proc = sim.process(child(sim))
    sim.process(parent(sim, child_proc))
    sim.run()
    assert log == [(10.0, "done")]


def test_child_failure_propagates_to_waiting_parent():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("child failed")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["child failed"]


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    log = []

    def trigger(sim, event):
        yield sim.timeout(2.0)
        event.succeed("payload")

    def waiter(sim, event):
        value = yield event
        log.append((sim.now, value))

    event = sim.event()
    sim.process(trigger(sim, event))
    sim.process(waiter(sim, event))
    sim.run()
    assert log == [(2.0, "payload")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    log = []

    def worker(sim, delay, tag):
        yield sim.timeout(delay)
        return tag

    def parent(sim):
        procs = [sim.process(worker(sim, d, t)) for d, t in [(5, "a"), (2, "b"), (9, "c")]]
        results = yield AllOf(sim, procs)
        log.append((sim.now, sorted(results.values())))

    sim.process(parent(sim))
    sim.run()
    assert log == [(9.0, ["a", "b", "c"])]


def test_any_of_returns_on_first_event():
    sim = Simulator()
    log = []

    def worker(sim, delay, tag):
        yield sim.timeout(delay)
        return tag

    def parent(sim):
        procs = [sim.process(worker(sim, d, t)) for d, t in [(5, "a"), (2, "b")]]
        results = yield AnyOf(sim, procs)
        log.append((sim.now, list(results.values())))

    sim.process(parent(sim))
    sim.run()
    assert log == [(2.0, ["b"])]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    log = []

    def parent(sim):
        results = yield AllOf(sim, [])
        log.append((sim.now, results))

    sim.process(parent(sim))
    sim.run()
    assert log == [(0.0, {})]


def test_all_of_fails_if_child_fails():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("bad child")

    def good(sim):
        yield sim.timeout(5.0)

    def parent(sim):
        try:
            yield AllOf(sim, [sim.process(bad(sim)), sim.process(good(sim))])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["bad child"]


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(TypeError):
        sim.run()


def test_cross_simulator_event_rejected():
    sim_a, sim_b = Simulator(), Simulator()

    def proc(sim_a, sim_b):
        yield sim_b.timeout(1.0)

    sim_a.process(proc(sim_a, sim_b))
    with pytest.raises(RuntimeError):
        sim_a.run()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_name_defaults_to_generator_name():
    sim = Simulator()

    def my_worker(sim):
        yield sim.timeout(1.0)

    proc = sim.process(my_worker(sim))
    assert proc.name == "my_worker"
    named = sim.process(my_worker(sim), name="custom")
    assert named.name == "custom"
    sim.run()

"""Tests for the simulation engine: clock, ordering, run modes."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Event, Simulator, SimulationError, StopSimulation
from repro.sim.process import PRIORITY_NORMAL, PRIORITY_URGENT


def test_initial_time_defaults_to_zero():
    assert Simulator().now == 0.0


def test_initial_time_can_be_set():
    assert Simulator(start_time=100.0).now == 100.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc(sim):
        yield sim.timeout(5.0)
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [5.0]


def test_run_until_time_sets_clock_exactly():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_time_does_not_fire_later_events():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(5.0)
        fired.append("early")
        yield sim.timeout(10.0)
        fired.append("late")

    sim.process(proc(sim))
    sim.run(until=7.0)
    assert fired == ["early"]
    # The horizon falls between two events: the clock stops at it exactly and
    # the later event stays pending; continue run
    assert sim.now == 7.0
    assert sim.peek() == 15.0
    sim.run(until=20.0)
    assert fired == ["early", "late"]


def test_run_until_past_raises():
    sim = Simulator(start_time=50.0)
    with pytest.raises(SimulationError):
        sim.run(until=10.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def producer(sim):
        yield sim.timeout(3.0)
        return "result"

    proc = sim.process(producer(sim))
    assert sim.run(until=proc) == "result"
    assert sim.now == 3.0


def test_run_until_event_reraises_failure():
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    proc = sim.process(boom(sim))
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=proc)


def test_run_until_event_never_triggering_raises():
    sim = Simulator()
    never = sim.event()

    def proc(sim):
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    with pytest.raises(SimulationError):
        sim.run(until=never)


def test_exhausted_run_until_event_detaches_the_absorber():
    """Regression: run(until=event) used to leave its failure-absorbing
    callback attached after exhausting the heap, so a *later* failure of
    that event was silently defused instead of raised."""
    sim = Simulator()
    never = sim.event()

    def proc(sim):
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    with pytest.raises(SimulationError):
        sim.run(until=never)

    never.fail(RuntimeError("late failure"))
    with pytest.raises(RuntimeError, match="late failure"):
        sim.run()


def test_stop_simulation_during_run_until_event_detaches_the_absorber():
    sim = Simulator()
    target = sim.event()

    def stopper(sim):
        yield sim.timeout(1.0)
        raise StopSimulation

    sim.process(stopper(sim))
    assert sim.run(until=target) is None

    target.fail(RuntimeError("failed after stop"))
    with pytest.raises(RuntimeError, match="failed after stop"):
        sim.run()


def test_run_until_failing_event_raises_exactly_once():
    """The double-raise path: step() must stay silent (the absorber defuses
    the failure) so run() is the single place the exception surfaces."""
    sim = Simulator()
    target = sim.event()

    def failer(sim):
        yield sim.timeout(1.0)
        target.fail(RuntimeError("boom"))

    sim.process(failer(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=target)
    # The failure was delivered and defused; a further run() is clean.
    assert sim.run() is None


def test_unhandled_process_exception_raises_from_run():
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(boom(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == list("abcde")


def test_timer_callbacks_and_deferred_calls_keep_the_event_order():
    """A timeout's callback is a timer; a deferred call runs once its caller
    returns, ahead of same-time timeouts armed before it."""
    sim = Simulator()
    log = []

    def deferred(event):
        log.append(("deferred", sim.now, event.value))

    def defer_one(event):
        sim.defer(deferred, 7)
        log.append("caller")

    first, last = (lambda e: log.append("first")), (lambda e: log.append("last"))
    for callback in (first, defer_one, last):
        sim.timeout(5.0).callbacks.append(callback)
    sim.run()
    assert log == ["first", "caller", ("deferred", 5.0, 7), "last"]


def test_step_on_empty_heap_raises():
    with pytest.raises(SimulationError):
        Simulator().step()


def test_peek_reports_next_event_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(4.0)

    sim.process(proc(sim))
    sim.step()  # process initialization event at t=0
    assert sim.peek() == 4.0


def test_stop_simulation_exits_run():
    sim = Simulator()
    log = []

    def stopper(sim):
        yield sim.timeout(2.0)
        log.append("stopping")
        raise StopSimulation

    def other(sim):
        yield sim.timeout(5.0)
        log.append("should not run")

    sim.process(stopper(sim))
    sim.process(other(sim))
    sim.run()
    assert log == ["stopping"]
    assert sim.now == 2.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_clock_is_monotone_over_random_timeouts(delays):
    """Property: the simulation clock never goes backwards."""
    sim = Simulator()
    observed = []

    def waiter(sim, delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    for delay in delays:
        sim.process(waiter(sim, delay))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 1000)),
                min_size=1, max_size=40))
def test_events_fire_in_time_order(pairs):
    """Property: firing order sorts by time, FIFO within equal times."""
    sim = Simulator()
    fired = []

    def waiter(sim, delay, tag):
        yield sim.timeout(delay)
        fired.append((sim.now, tag))

    for tag, (delay, _salt) in enumerate(pairs):
        sim.process(waiter(sim, delay, tag))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # FIFO among equal-time events: tags at equal time ascend
    for i in range(1, len(fired)):
        if fired[i][0] == fired[i - 1][0]:
            assert fired[i][1] > fired[i - 1][1]


# -- empty-heap peek ----------------------------------------------------------

def test_peek_on_empty_heap_raises():
    with pytest.raises(SimulationError, match="empty event heap"):
        Simulator().peek()


def test_peek_on_exhausted_heap_raises():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run()
    with pytest.raises(SimulationError):
        sim.peek()


# -- pending count and tie order ---------------------------------------------

def test_len_counts_every_pending_event():
    sim = Simulator()
    for delay in (2700.0, 2700.0, 5.0, 1e6):
        sim.timeout(delay)
    assert len(sim) == 4
    sim.step()
    assert len(sim) == 3


_delays = st.one_of(
    st.integers(0, 12).map(lambda half_hours: 1800.0 * half_hours),  # exact ties
    st.floats(min_value=0.0, max_value=20000.0),
)


@given(st.lists(st.tuples(_delays, st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL]),
                          st.booleans()),
                min_size=1, max_size=40))
def test_events_fire_in_time_priority_schedule_order(entries):
    """Property: the heap pops in ``(time, priority, schedule order)`` order,
    for plain timeouts and for events scheduled with an explicit priority."""
    sim = Simulator()
    fired = []
    for tag, (delay, priority, as_timeout) in enumerate(entries):
        if as_timeout and priority == PRIORITY_NORMAL:
            event = sim.timeout(delay)
        else:
            event = Event(sim)
            sim._schedule(event, delay=delay, priority=priority)
        event.callbacks.append(lambda _event, tag=tag: fired.append(tag))
    sim.run()
    reference = sorted(range(len(entries)),
                       key=lambda tag: (entries[tag][0], entries[tag][1], tag))
    assert fired == reference


# -- far timeouts on the plain heap --------------------------------------------
# The kernel has no timer wheel: timeouts of any length are plain heap
# entries.  These pin the cases a coalescing wheel would get wrong -- far
# timeouts sharing a bucket, peeks and horizons inside a bucket, and ties.

QUARTER_HOUR = 900.0


def _firing_order(delays):
    """Run one workload and return the (time, tag) firing sequence."""
    sim = Simulator()
    fired = []

    def waiter(sim, delay, tag):
        yield sim.timeout(delay)
        fired.append((sim.now, tag))

    for tag, delay in enumerate(delays):
        sim.process(waiter(sim, delay, tag))
    sim.run()
    return fired


def _sorted_reference(delays):
    """The expected firing sequence: by time, then schedule order."""
    return sorted((delay, tag) for tag, delay in enumerate(delays))


def test_wheel_buckets_far_timeouts():
    sim = Simulator()
    for _ in range(5):
        sim.timeout(3.0 * QUARTER_HOUR)
    # One heap entry per timeout, all counted, all due at the same time.
    assert len(sim._heap) == 5
    assert len(sim) == 5
    sim.run()
    assert sim.now == 3.0 * QUARTER_HOUR
    assert len(sim) == 0


def test_wheel_disabled_keeps_plain_heap():
    sim = Simulator()
    for delay in (3.0 * QUARTER_HOUR, QUARTER_HOUR, 0.0):
        sim.timeout(delay)
    # Far and near timeouts alike sit on the one heap, keyed by their own time.
    assert sorted(entry[0] for entry in sim._heap) == [0.0, QUARTER_HOUR,
                                                       3.0 * QUARTER_HOUR]
    assert not hasattr(sim, "_wheel")


def test_wheel_preserves_firing_order():
    # Far timeouts, near ones, and exact ties: pop order is by time, FIFO
    # among equal times.
    delays = [
        5.0 * QUARTER_HOUR,
        1.0,
        5.0 * QUARTER_HOUR,  # tie with tag 0
        2.5 * QUARTER_HOUR,
        0.0,
        7.25 * QUARTER_HOUR,
        2.5 * QUARTER_HOUR + 0.125,
    ]
    assert _firing_order(delays) == _sorted_reference(delays)


def test_wheel_peek_settles_buckets():
    sim = Simulator()
    sim.timeout(2.0 * QUARTER_HOUR)
    # peek reports the event's own time, also after the clock has moved
    # part of the way towards it.
    assert sim.peek() == 2.0 * QUARTER_HOUR
    sim.run(until=1.5 * QUARTER_HOUR)
    assert sim.peek() == 2.0 * QUARTER_HOUR


def test_wheel_run_until_horizon_between_marker_and_event():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(2.5 * QUARTER_HOUR)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=2.25 * QUARTER_HOUR)
    assert fired == []
    assert sim.now == 2.25 * QUARTER_HOUR
    sim.run(until=3.0 * QUARTER_HOUR)
    assert fired == [2.5 * QUARTER_HOUR]


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30))
def test_wheel_equivalence_over_random_delays(ticks):
    """Property: process waiters fire in (time, schedule order) order."""
    delays = [t * QUARTER_HOUR for t in ticks]
    assert _firing_order(delays) == _sorted_reference(delays)


# -- NaN times ------------------------------------------------------------------
# NaN compares false with everything, so a `delay < 0` check let it through:
# a NaN timeout fired after the last finite event and left the clock at NaN.

NAN = float("nan")


def test_nan_timeout_delay_rejected():
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0, 5.0):
        sim.timeout(delay)
    with pytest.raises(ValueError):
        sim.timeout(NAN)
    sim.run()
    assert sim.now == 5.0
    assert len(sim) == 0


@pytest.mark.parametrize("trigger", ["succeed", "fail"])
def test_nan_event_delay_rejected(trigger):
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        if trigger == "succeed":
            event.succeed("value", delay=NAN)
        else:
            event.fail(RuntimeError("boom"), delay=NAN)
    assert len(sim) == 0


def test_nan_start_time_rejected():
    with pytest.raises(SimulationError):
        Simulator(start_time=NAN)


def test_run_until_nan_rejected():
    sim = Simulator()
    sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.run(until=NAN)
    assert sim.now == 0.0
    assert sim.peek() == 1.0


def test_the_clock_is_a_plain_attribute():
    sim = Simulator(start_time=3.0)
    assert vars(sim)["now"] == 3.0
    assert "now" not in vars(Simulator)

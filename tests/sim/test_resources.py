"""Tests for counting resources and stores."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Simulator
from repro.sim.resources import Resource


def test_resource_grants_immediately_when_available():
    sim = Simulator()
    log = []

    def worker(sim, res):
        req = res.request()
        yield req
        log.append(sim.now)
        res.release(req)

    res = Resource(sim, capacity=1)
    sim.process(worker(sim, res))
    sim.run()
    assert log == [0.0]
    assert res.in_use == 0


def test_resource_serializes_under_contention():
    sim = Simulator()
    log = []

    def worker(sim, res, tag, hold):
        req = res.request()
        yield req
        log.append((sim.now, tag, "start"))
        yield sim.timeout(hold)
        res.release(req)
        log.append((sim.now, tag, "end"))

    res = Resource(sim, capacity=1)
    sim.process(worker(sim, res, "a", 5.0))
    sim.process(worker(sim, res, "b", 3.0))
    sim.run()
    assert log == [
        (0.0, "a", "start"),
        (5.0, "a", "end"),
        (5.0, "b", "start"),
        (8.0, "b", "end"),
    ]


def test_multi_unit_requests():
    sim = Simulator()
    log = []

    def worker(sim, res, tag, amount, hold):
        req = res.request(amount=amount)
        yield req
        log.append((sim.now, tag))
        yield sim.timeout(hold)
        res.release(req)

    res = Resource(sim, capacity=4)
    sim.process(worker(sim, res, "big", 3, 10.0))
    sim.process(worker(sim, res, "small", 2, 1.0))  # must wait for big
    sim.run()
    assert log == [(0.0, "big"), (10.0, "small")]


def test_strict_queue_order_blocks_small_behind_large():
    """A large head request blocks later small requests (no starvation)."""
    sim = Simulator()
    log = []

    def holder(sim, res):
        req = res.request(amount=3)
        yield req
        yield sim.timeout(10.0)
        res.release(req)

    def big_then_small(sim, res):
        yield sim.timeout(1.0)
        big = res.request(amount=4)  # cannot fit until holder releases
        small = res.request(amount=1)  # could fit now, but must wait behind big
        yield big
        log.append(("big", sim.now))
        res.release(big)
        yield small
        log.append(("small", sim.now))
        res.release(small)

    res = Resource(sim, capacity=4)
    sim.process(holder(sim, res))
    sim.process(big_then_small(sim, res))
    sim.run()
    assert log == [("big", 10.0), ("small", 10.0)]


def test_request_validation():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    with pytest.raises(ValueError):
        res.request(amount=0)
    with pytest.raises(ValueError):
        res.request(amount=3)
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_release_of_ungranted_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    second = res.request()
    assert first.triggered and not second.triggered
    with pytest.raises(RuntimeError):
        res.release(second)


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=20),
    st.integers(min_value=4, max_value=8),
)
def test_resource_never_exceeds_capacity(amounts, capacity):
    """Property: in-use units never exceed capacity; all requests complete."""
    sim = Simulator()
    completed = []
    max_in_use = [0]

    def worker(sim, res, amount, tag):
        req = res.request(amount=amount)
        yield req
        max_in_use[0] = max(max_in_use[0], res.in_use)
        assert res.in_use <= res.capacity
        yield sim.timeout(1.0)
        res.release(req)
        completed.append(tag)

    res = Resource(sim, capacity=capacity)
    for tag, amount in enumerate(amounts):
        sim.process(worker(sim, res, amount, tag))
    sim.run()
    assert sorted(completed) == list(range(len(amounts)))
    assert res.in_use == 0
    assert 0 < max_in_use[0] <= capacity

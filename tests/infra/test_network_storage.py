"""Tests for the WAN model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.infra.network import Network
from repro.sim import Simulator


def make_net(bandwidths):
    sim = Simulator()
    net = Network(sim)
    for site, bw in bandwidths.items():
        net.add_site(site, bw)
    return sim, net


def run_transfer(sim, net, src, dst, size):
    result = {}

    def mover(sim):
        transfer = yield net.transfer(src, dst, size)
        result["duration"] = transfer.duration
        result["transfer"] = transfer

    sim.process(mover(sim))
    sim.run()
    return result


def test_single_transfer_at_bottleneck_rate():
    sim, net = make_net({"a": 100.0, "b": 50.0})
    result = run_transfer(sim, net, "a", "b", 5000.0)
    assert result["duration"] == pytest.approx(100.0)  # 5000 B / 50 B/s


def test_two_transfers_share_a_link():
    sim, net = make_net({"a": 100.0, "b": 100.0, "c": 100.0})
    durations = {}

    def mover(sim, tag, dst):
        transfer = yield net.transfer("a", dst, 1000.0)
        durations[tag] = transfer.duration

    sim.process(mover(sim, "t1", "b"))
    sim.process(mover(sim, "t2", "c"))
    sim.run()
    # Both share a's 100 B/s uplink: 50 B/s each -> 20 s.
    assert durations["t1"] == pytest.approx(20.0)
    assert durations["t2"] == pytest.approx(20.0)


def test_rate_increases_when_contender_finishes():
    sim, net = make_net({"a": 100.0, "b": 100.0, "c": 100.0})
    durations = {}

    def mover(sim, tag, dst, size):
        transfer = yield net.transfer("a", dst, size)
        durations[tag] = transfer.duration

    sim.process(mover(sim, "small", "b", 500.0))
    sim.process(mover(sim, "large", "c", 2000.0))
    sim.run()
    # Shared at 50 B/s until the small one finishes at t=10 (500 B);
    # the large one then has 2000-500=1500 B left at 100 B/s -> 15 s more.
    assert durations["small"] == pytest.approx(10.0)
    assert durations["large"] == pytest.approx(25.0)


def test_disjoint_transfers_do_not_interact():
    sim, net = make_net({"a": 100.0, "b": 100.0, "c": 100.0, "d": 100.0})
    durations = {}

    def mover(sim, tag, src, dst):
        transfer = yield net.transfer(src, dst, 1000.0)
        durations[tag] = transfer.duration

    sim.process(mover(sim, "t1", "a", "b"))
    sim.process(mover(sim, "t2", "c", "d"))
    sim.run()
    assert durations["t1"] == pytest.approx(10.0)
    assert durations["t2"] == pytest.approx(10.0)


def test_same_site_transfer_is_local_copy():
    sim, net = make_net({"a": 100.0})
    result = run_transfer(sim, net, "a", "a", 1e12)
    assert result["duration"] == pytest.approx(net.local_copy_time)


def test_unknown_site_rejected():
    sim, net = make_net({"a": 100.0})
    with pytest.raises(KeyError):
        net.transfer("a", "zz", 10.0)


def test_duplicate_site_rejected():
    sim, net = make_net({"a": 100.0})
    with pytest.raises(ValueError):
        net.add_site("a", 50.0)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["a", "b", "c"]),
            st.floats(min_value=10.0, max_value=1e5),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_all_transfers_complete_and_respect_capacity_bound(specs):
    """Property: every transfer finishes, and none finishes faster than its
    uncontended bottleneck bound."""
    bandwidths = {"a": 100.0, "b": 80.0, "c": 50.0}
    sim, net = make_net(bandwidths)
    outcomes = []

    def mover(sim, delay, src, dst, size):
        yield sim.timeout(delay)
        transfer = yield net.transfer(src, dst, size)
        # Alone on the path, a transfer runs at its slower endpoint's rate.
        bound = (
            net.local_copy_time if src == dst
            else size / min(bandwidths[src], bandwidths[dst])
        )
        outcomes.append((transfer, bound))

    for src, dst, size, delay in specs:
        sim.process(mover(sim, delay, src, dst, size))
    sim.run()
    assert len(outcomes) == len(specs)
    for transfer, bound in outcomes:
        assert transfer.duration is not None
        assert transfer.duration >= bound - 1e-6
        assert transfer.remaining == 0.0

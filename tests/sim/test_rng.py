"""Tests for named random streams and derived seeds."""

from hypothesis import given, strategies as st

from repro.sim import RandomStreams, derive_seed


def test_same_seed_same_name_reproduces():
    a = RandomStreams(seed=7).stream("arrivals")
    b = RandomStreams(seed=7).stream("arrivals")
    assert a.random(10).tolist() == b.random(10).tolist()


def test_different_names_are_independent():
    streams = RandomStreams(seed=7)
    a = streams.stream("arrivals").random(10)
    b = streams.stream("runtimes").random(10)
    assert a.tolist() != b.tolist()


def test_different_seeds_differ():
    a = RandomStreams(seed=1).stream("arrivals").random(10)
    b = RandomStreams(seed=2).stream("arrivals").random(10)
    assert a.tolist() != b.tolist()


def test_stream_is_cached():
    streams = RandomStreams(seed=0)
    assert streams.stream("x") is streams.stream("x")


def test_adding_streams_does_not_perturb_existing():
    """Creating a new named stream must not change draws of an old one."""
    first = RandomStreams(seed=3)
    expected = first.stream("a").random(5).tolist()

    second = RandomStreams(seed=3)
    second.stream("zzz")  # extra stream created first
    assert second.stream("a").random(5).tolist() == expected


def test_names_and_contains():
    streams = RandomStreams(seed=0)
    streams.stream("one")
    assert "one" in streams
    assert "two" not in streams
    assert streams.names() == ("one",)


# -- seed derivation -----------------------------------------------------------

def test_derive_seed_is_deterministic():
    assert derive_seed(7, "R1:3") == derive_seed(7, "R1:3")


def test_derive_seed_distinguishes_seed_and_key():
    assert derive_seed(7, "a") != derive_seed(8, "a")
    assert derive_seed(7, "a") != derive_seed(7, "b")


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 500),
       st.integers(0, 500))
def test_derive_seed_collision_free_over_keys(seed, i, j):
    """Property: distinct keys never map to the same child seed."""
    if i != j:
        assert derive_seed(seed, f"task:{i}") != derive_seed(seed, f"task:{j}")


def test_spawn_does_not_collide_with_named_streams():
    """derive_seed(seed, key) and stream(name) use distinct separators: a
    factory seeded with derive_seed(9, 'x') must not replay seed 9's stream
    named 'x'."""
    named = RandomStreams(seed=9).stream("x").random(8).tolist()
    derived = RandomStreams(seed=derive_seed(9, "x"))
    assert named != derived.stream("x").random(8).tolist()


# -- streams of multi-cell runs -------------------------------------------------
# Multi-cell (sharded) runs draw from RandomStreams like the coupled run; these
# pin the contracts that tier relies on, through the Generator methods the
# simulator components call.


def test_buffered_streams_are_deterministic():
    a = RandomStreams(seed=17).stream("think").exponential(4.0)
    b = RandomStreams(seed=17).stream("think").exponential(4.0)
    assert a == b


def test_buffered_streams_differ_by_name_and_seed():
    streams = RandomStreams(seed=17)
    assert streams.stream("a").random() != streams.stream("b").random()
    assert RandomStreams(seed=1).stream("a").random() != \
           RandomStreams(seed=2).stream("a").random()


def test_buffered_stream_instances_are_cached():
    streams = RandomStreams(seed=17)
    assert streams.stream("think") is streams.stream("think")
    assert "think" in streams

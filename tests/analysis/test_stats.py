"""Tests for the statistics helpers."""

import pytest

from repro.analysis import describe


def test_describe_basic():
    stats = describe([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats.n == 5
    assert stats.mean == 3.0
    assert stats.median == 3.0
    assert stats.minimum == 1.0
    assert stats.maximum == 5.0


def test_describe_single_value_has_zero_std():
    stats = describe([7.0])
    assert stats.std == 0.0
    assert stats.mean == 7.0


def test_describe_empty_raises():
    with pytest.raises(ValueError):
        describe([])

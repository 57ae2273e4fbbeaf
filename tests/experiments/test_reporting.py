"""Tests for the report generator's registry coverage."""

import io

import pytest

from repro.experiments import registry
from repro.experiments.reporting import FAST_KNOBS, _ORDER, generate_report
from repro.runner import ParallelRunner


def test_order_covers_registry_exactly():
    assert set(_ORDER) == set(registry)


def test_fast_knobs_cover_registry():
    # Every experiment has a fast configuration (or deliberately none).
    missing = set(registry) - set(FAST_KNOBS)
    assert not missing, f"experiments without fast knobs: {missing}"


def _inline_runner():
    return ParallelRunner(jobs=1, use_cache=False)


def test_generate_report_unknown_id_raises():
    with pytest.raises(KeyError):
        generate_report(_inline_runner(), out=io.StringIO(), only=["nope"])


def test_generate_report_writes_output():
    buffer = io.StringIO()
    outputs = generate_report(_inline_runner(), buffer, fast=True, only=["A2"])
    assert len(outputs) == 1
    assert buffer.getvalue() == f"{outputs[0]}\n\n"
    assert "A2" in buffer.getvalue()

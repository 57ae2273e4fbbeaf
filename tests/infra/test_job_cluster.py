"""Tests for the job model and cluster description."""

import pytest

from repro.infra.cluster import Cluster
from repro.infra.job import AttributeKeys, Job, JobState
from repro.sim import Simulator


def make_job(**kwargs):
    defaults = dict(
        user="alice", account="acct", cores=4, walltime=3600.0,
        true_runtime=1800.0, job_id=1,
    )
    defaults.update(kwargs)
    return Job(**defaults)


def test_job_ids_are_unique():
    """Ids come from the simulator: each kind counts from 1, and two
    simulators share nothing.  A job without one is a TypeError."""
    sim, other = Simulator(), Simulator()
    assert [sim.next_id("job") for _ in range(3)] == [1, 2, 3]
    assert sim.next_id("workflow") == 1
    assert other.next_id("job") == 1
    assert sim.next_id("job") == 4
    with pytest.raises(TypeError):
        Job(user="alice", account="acct", cores=4, walltime=3600.0,
            true_runtime=1800.0)


def test_job_validation():
    with pytest.raises(ValueError):
        make_job(cores=0)
    with pytest.raises(ValueError):
        make_job(walltime=0.0)
    with pytest.raises(ValueError):
        make_job(true_runtime=-1.0)


def test_true_user_defaults_to_user():
    assert make_job().true_user == "alice"
    assert make_job(true_user="bob").true_user == "bob"


def test_bounded_runtime_clamps_to_walltime():
    assert make_job(true_runtime=5000.0, walltime=3600.0).bounded_runtime == 3600.0
    assert make_job(true_runtime=100.0).bounded_runtime == 100.0


def test_final_state_precedence():
    assert (
        make_job(true_runtime=100.0).final_state_when_run_to_completion()
        is JobState.COMPLETED
    )
    assert (
        make_job(true_runtime=100.0, will_fail=True)
        .final_state_when_run_to_completion()
        is JobState.FAILED
    )
    # walltime kill happens before the (later) failure could occur
    assert (
        make_job(true_runtime=5000.0, will_fail=True)
        .final_state_when_run_to_completion()
        is JobState.KILLED_WALLTIME
    )


def test_derived_times_none_until_set():
    job = make_job()
    assert job.wait_time is None
    assert job.elapsed is None
    job.submit_time, job.start_time, job.end_time = 10.0, 60.0, 100.0
    assert job.wait_time == 50.0
    assert job.elapsed == 40.0


def test_interactive_flag_via_attributes():
    assert not make_job().is_interactive
    assert make_job(attributes={AttributeKeys.INTERACTIVE: True}).is_interactive


def test_terminal_states():
    terminal = {
        JobState.COMPLETED,
        JobState.FAILED,
        JobState.KILLED_WALLTIME,
        JobState.CANCELLED,
    }
    for state in JobState:
        assert state.is_terminal == (state in terminal)


def test_cluster_totals_and_node_rounding():
    cluster = Cluster("mach", nodes=10, cores_per_node=16)
    assert cluster.total_cores == 160
    assert cluster.nodes_for(1) == 1
    assert cluster.nodes_for(16) == 1
    assert cluster.nodes_for(17) == 2
    assert cluster.nodes_for(160) == 10


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster("m", nodes=0, cores_per_node=4)
    with pytest.raises(ValueError):
        Cluster("m", nodes=4, cores_per_node=4, nu_per_core_hour=0.0)
    cluster = Cluster("m", nodes=2, cores_per_node=4)
    with pytest.raises(ValueError):
        cluster.nodes_for(9)
    with pytest.raises(ValueError):
        cluster.nodes_for(0)

"""Tests for the workflow engine and co-allocator."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.infra as I
from repro.infra.job import AttributeKeys, JobState
from repro.infra.metascheduler import SelectionStrategy
from repro.infra.units import HOUR
from repro.infra.workflow import TaskGraph, TaskSpec
from repro.sim import Simulator


def make_federation(n_sites=2, nodes=8, with_network=True):
    sim = Simulator()
    ledger = I.AllocationLedger()
    ledger.create("acct", I.AllocationType.RESEARCH, 1e12, users={"alice"})
    central = I.CentralAccountingDB()
    providers = [
        I.ResourceProvider(
            sim,
            I.Cluster(f"site{i}", nodes=nodes, cores_per_node=1),
            ledger,
            central,
        )
        for i in range(n_sites)
    ]
    network = None
    if with_network:
        network = I.Network(sim)
        for p in providers:
            network.add_site(p.name, 1e9)
    meta = I.Metascheduler(providers, SelectionStrategy.PREDICTED_START)
    return sim, providers, meta, network, central


# ------------------------------------------------------------------ TaskGraph


def test_task_graph_construction_and_topo_order():
    graph = TaskGraph("g")
    for name in "abc":
        graph.add_task(TaskSpec(name=name, cores=1, walltime=10.0, true_runtime=5.0))
    graph.add_dependency("a", "b")
    graph.add_dependency("b", "c")
    assert graph.tasks() == ["a", "b", "c"]
    assert graph.predecessors("c") == ["b"]
    assert graph.predecessors("a") == []


def test_task_graph_rejects_cycles_and_duplicates():
    graph = TaskGraph("g")
    graph.add_task(TaskSpec(name="a", cores=1, walltime=10.0, true_runtime=5.0))
    graph.add_task(TaskSpec(name="b", cores=1, walltime=10.0, true_runtime=5.0))
    graph.add_dependency("a", "b")
    with pytest.raises(ValueError):
        graph.add_dependency("b", "a")
    with pytest.raises(ValueError):
        graph.add_dependency("a", "a")
    with pytest.raises(ValueError):
        graph.add_task(TaskSpec(name="a", cores=1, walltime=10.0, true_runtime=5.0))
    with pytest.raises(KeyError):
        graph.add_dependency("a", "zz")


def test_parameter_sweep_factory():
    graph = TaskGraph.parameter_sweep(
        "sweep", width=5, cores=2, walltime=HOUR, true_runtime=HOUR / 2
    )
    assert len(graph.tasks()) == 6  # 5 sweeps + merge
    merge = "sweep-merge"
    assert set(graph.predecessors(merge)) == {f"sweep-sweep-{i}" for i in range(5)}
    flat = TaskGraph.parameter_sweep(
        "flat", width=3, cores=1, walltime=HOUR, true_runtime=HOUR, with_merge=False
    )
    assert len(flat.tasks()) == 3


def _task(name):
    return TaskSpec(name=name, cores=1, walltime=10.0, true_runtime=5.0)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


@settings(max_examples=200, deadline=None)
@given(
    order=st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))),
    edges=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30),
)
def test_task_graph_matches_networkx(nx, order, edges):
    """Property: tasks, predecessors and cycle verdicts equal a networkx
    DiGraph built from the same insertions."""
    names = [f"t{k}" for k in order]
    graph = TaskGraph("g")
    reference = nx.DiGraph()
    for name in names:
        graph.add_task(_task(name))
        reference.add_node(name)
    for i, j in edges:
        producer, consumer = names[i % len(names)], names[j % len(names)]
        reference.add_edge(producer, consumer)
        cyclic = not nx.is_directed_acyclic_graph(reference)
        if cyclic:
            reference.remove_edge(producer, consumer)
            with pytest.raises(ValueError, match="cycle"):
                graph.add_dependency(producer, consumer)
        else:
            graph.add_dependency(producer, consumer)
    assert graph.tasks() == list(reference.nodes)
    for name in names:
        assert graph.predecessors(name) == list(reference.predecessors(name))


# ------------------------------------------------------------------- engine


def test_workflow_executes_in_dependency_order():
    sim, providers, meta, network, central = make_federation()
    engine = I.WorkflowEngine(sim, meta, network=network)
    graph = TaskGraph("g")
    graph.add_task(TaskSpec(name="pre", cores=1, walltime=HOUR,
                            true_runtime=HOUR / 2, output_bytes=1e9))
    graph.add_task(TaskSpec(name="main", cores=4, walltime=HOUR,
                            true_runtime=HOUR / 2))
    graph.add_dependency("pre", "main")
    proc = engine.run(graph, user="alice", account="acct",
                      true_modality="ensemble")
    result = sim.run(until=proc)
    assert {job.state for job in result.jobs} == {JobState.COMPLETED}
    jobs = {j.attributes[AttributeKeys.WORKFLOW_ID]: j for j in result.jobs}
    assert len(result.jobs) == 2
    pre, main = result.jobs
    assert main.start_time >= pre.end_time
    wf_ids = {j.attributes[AttributeKeys.WORKFLOW_ID] for j in result.jobs}
    assert len(wf_ids) == 1


def test_workflow_sweep_runs_wide_then_merges():
    sim, providers, meta, network, central = make_federation(nodes=16)
    engine = I.WorkflowEngine(sim, meta, network=network)
    graph = TaskGraph.parameter_sweep(
        "s", width=8, cores=1, walltime=HOUR, true_runtime=HOUR / 2
    )
    proc = engine.run(graph, user="alice", account="acct")
    result = sim.run(until=proc)
    assert {job.state for job in result.jobs} == {JobState.COMPLETED}
    assert len(result.jobs) == 9
    merge_job = result.jobs[-1]
    sweep_ends = [j.end_time for j in result.jobs[:-1]]
    assert merge_job.start_time >= max(sweep_ends)
    assert result.makespan > 0


def test_workflow_result_records_makespan():
    sim, providers, meta, network, central = make_federation()
    engine = I.WorkflowEngine(sim, meta, network=network)
    graph = TaskGraph.parameter_sweep(
        "s", width=2, cores=1, walltime=HOUR, true_runtime=HOUR / 4,
        with_merge=False,
    )
    proc = engine.run(graph, user="alice", account="acct")
    result = sim.run(until=proc)
    assert result.makespan >= HOUR / 4
    assert engine.results == [result]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3))
def test_workflow_respects_topological_order_property(width, depth):
    """Property: every job starts only after all its predecessors ended."""
    sim, providers, meta, network, central = make_federation(nodes=16)
    engine = I.WorkflowEngine(sim, meta, network=network)
    graph = TaskGraph("g")
    # Layered DAG: `depth` chained layers of `width` tasks.
    names = []
    for layer in range(depth + 1):
        layer_names = []
        for i in range(width):
            name = f"t{layer}-{i}"
            graph.add_task(TaskSpec(name=name, cores=1, walltime=HOUR,
                                    true_runtime=600.0, output_bytes=1e6))
            layer_names.append(name)
        if layer > 0:
            for prev in names[-1]:
                for cur in layer_names:
                    graph.add_dependency(prev, cur)
        names.append(layer_names)
    proc = engine.run(graph, user="alice", account="acct")
    result = sim.run(until=proc)
    # Jobs are launched layer by layer (the engine waits for each level), so
    # result.jobs partitions into consecutive layers of `width`.
    jobs = result.jobs
    for layer in range(1, depth + 1):
        earlier = jobs[: layer * width]
        current = jobs[layer * width : (layer + 1) * width]
        latest_end = max(j.end_time for j in earlier[-width:])
        for job in current:
            assert job.start_time >= latest_end - 1e-6


def test_coalloc_synchronized_start_and_attributes():
    sim, providers, meta, network, central = make_federation(n_sites=3)
    coalloc = I.CoAllocator(sim, slack=60.0, wan_overhead_factor=1.5)
    proc = coalloc.launch(
        user="alice",
        account="acct",
        parts=[(providers[0], 4), (providers[1], 4)],
        walltime=2 * HOUR,
        single_site_runtime=HOUR,
        true_modality="coupled",
    )
    record = sim.run(until=proc)
    assert record.succeeded
    assert record.synchronized
    starts = {j.start_time for j in record.jobs}
    assert len(starts) == 1  # exact common start
    ids = {j.attributes[AttributeKeys.COALLOCATION_ID] for j in record.jobs}
    assert len(ids) == 1
    # WAN overhead inflates runtime 1.5x.
    for j in record.jobs:
        assert j.elapsed == pytest.approx(1.5 * HOUR)


def test_coalloc_waits_for_busy_site():
    sim, providers, meta, network, central = make_federation(n_sites=2, nodes=4)
    from repro.infra.job import Job

    blocker = Job(user="alice", account="acct", cores=4,
                  walltime=3 * HOUR, true_runtime=3 * HOUR,
                  job_id=sim.next_id("job"))
    providers[0].submit(blocker)
    coalloc = I.CoAllocator(sim, slack=60.0)
    proc = coalloc.launch(
        user="alice",
        account="acct",
        parts=[(providers[0], 4), (providers[1], 4)],
        walltime=HOUR,
        single_site_runtime=HOUR / 2,
    )
    record = sim.run(until=proc)
    assert record.planned_start == pytest.approx(3 * HOUR + 60.0)
    assert record.synchronized


def test_coalloc_validation():
    sim, providers, *_ = make_federation()
    with pytest.raises(ValueError):
        I.CoAllocator(sim, slack=-1.0)
    with pytest.raises(ValueError):
        I.CoAllocator(sim, wan_overhead_factor=0.5)
    coalloc = I.CoAllocator(sim)
    with pytest.raises(ValueError):
        coalloc.launch("alice", "acct", [(providers[0], 4)], HOUR, HOUR)

"""Property-based tests of DAGMan release-order invariants.

Random DAGs driven through the engine directly (no pool): whatever the
throttles and completion order, a node must never be released before all
its parents completed, every node must be released exactly once, and
rescue fast-forwarding must commute with normal execution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.condor.dagfile import DagDescription
from repro.condor.dagman import DagmanEngine, DagmanOptions, NodeStatus
from repro.condor.jobs import JobPayload, JobSpec


@st.composite
def random_dags(draw):
    """Random DAGs with edges only from lower to higher indices (acyclic
    by construction)."""
    n = draw(st.integers(min_value=1, max_value=14))
    dag = DagDescription("rand")
    for i in range(n):
        dag.add_job(f"n{i}", JobSpec(name=f"n{i}", payload=JobPayload(phase="A")))
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                dag.add_edge(f"n{i}", f"n{j}")
    dag.validate()
    return dag


@st.composite
def shuffled_dags(draw):
    """Node names and edges of a random DAG, each in a random insertion
    order."""
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = [(i, j) for j in range(1, n) for i in range(j) if draw(st.booleans())]
    nodes = [f"n{k}" for k in draw(st.permutations(range(n)))]
    edges = [(f"n{i}", f"n{j}") for i, j in draw(st.permutations(pairs))]
    return nodes, edges


@given(shuffled_dags())
@settings(max_examples=50, deadline=None)
def test_topological_order_matches_networkx(graph):
    """The Kahn pass orders nodes exactly like networkx's
    ``topological_sort`` (rescue files list DONE nodes in this order)
    whatever the insertion order, and validation rejects a DAG once a
    cycle-closing edge is added."""
    import networkx as nx

    from repro.errors import DagError

    nodes, edges = graph
    dag = DagDescription("rand")
    for name in nodes:
        dag.add_job(name, JobSpec(name=name, payload=JobPayload(phase="A")))
    for parent, child in edges:
        dag.add_edge(parent, child)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(nodes)
    oracle.add_edges_from(edges)
    order = list(nx.topological_sort(oracle))
    assert dag.topological_order() == order
    roots = [n for n in dag.node_names if dag.n_parents(n) == 0]
    assert roots == [n for n in nodes if oracle.in_degree(n) == 0]
    if edges:
        parent, child = edges[-1]
        dag.add_edge(child, parent)
        with pytest.raises(DagError, match="cycle"):
            dag.validate()


def drive(engine: DagmanEngine, rng: np.random.Generator) -> list[str]:
    """Run the engine with randomized in-flight completion order.

    Returns the order in which nodes were *completed*.
    """
    in_flight: list[str] = []
    completed: list[str] = []
    guard = 0
    while not engine.is_complete:
        guard += 1
        assert guard < 10_000, "engine stalled"
        in_flight.extend(engine.pull_submissions(current_idle=len(in_flight)))
        if not in_flight:
            continue
        pick = int(rng.integers(len(in_flight)))
        name = in_flight.pop(pick)
        engine.on_node_result(name, True)
        completed.append(name)
    return completed


@given(random_dags(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_completion_order_respects_dependencies(dag, seed):
    engine = DagmanEngine(dag)
    order = drive(engine, np.random.default_rng(seed))
    assert sorted(order) == sorted(dag.node_names)  # each exactly once
    position = {name: i for i, name in enumerate(order)}
    for parent in dag.node_names:
        for child in dag.children(parent):
            assert position[parent] < position[child]


@given(
    random_dags(),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_throttles_never_change_completability(dag, seed, max_idle, batch):
    engine = DagmanEngine(dag, DagmanOptions(max_idle=max_idle, submit_batch=batch))
    order = drive(engine, np.random.default_rng(seed))
    assert len(order) == len(dag)
    assert engine.is_complete


@given(random_dags(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_rescue_commutes_with_execution(dag, seed):
    """Running half the DAG, snapshotting, and fast-forwarding a fresh
    engine leaves exactly the other half to run."""
    from repro.condor.rescue import apply_rescue

    rng = np.random.default_rng(seed)
    engine = DagmanEngine(dag)
    # Complete roughly half the nodes.
    target = len(dag) // 2
    in_flight: list[str] = []
    done: list[str] = []
    while len(done) < target:
        in_flight.extend(engine.pull_submissions(len(in_flight)))
        if not in_flight:
            break
        name = in_flight.pop(int(rng.integers(len(in_flight))))
        engine.on_node_result(name, True)
        done.append(name)

    fresh = DagmanEngine(dag)
    applied = apply_rescue(fresh, done)
    assert applied == len(done)
    remaining = drive(fresh, rng)
    assert sorted(remaining + done) == sorted(dag.node_names)
    assert fresh.is_complete


@given(random_dags())
@settings(max_examples=30, deadline=None)
def test_initial_ready_set_is_exactly_the_roots(dag):
    engine = DagmanEngine(dag)
    counts = engine.counts()
    n_roots = sum(1 for n in dag.node_names if dag.n_parents(n) == 0)
    assert counts[NodeStatus.READY] == n_roots
    assert counts[NodeStatus.WAITING] == len(dag) - n_roots


@given(random_dags(), st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_single_failure_without_retries_blocks_descendants(dag, seed):
    rng = np.random.default_rng(seed)
    engine = DagmanEngine(dag)
    batch = engine.pull_submissions(0)
    if not batch:
        return
    victim = batch[int(rng.integers(len(batch)))]
    engine.on_node_result(victim, False)
    assert engine.has_failed
    # Descendants of the victim can never become READY.
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(dag.node_names)
    graph.add_edges_from((p, c) for c in dag.node_names for p in dag.parents(c))
    descendants = nx.descendants(graph, victim)
    # Drain everything still runnable.
    in_flight = [n for n in batch if n != victim]
    guard = 0
    while True:
        guard += 1
        assert guard < 10_000
        in_flight.extend(engine.pull_submissions(len(in_flight)))
        if not in_flight:
            break
        engine.on_node_result(in_flight.pop(), True)
    for node in descendants:
        assert engine.status(node) is NodeStatus.WAITING
    assert not engine.is_complete or not descendants


def test_drive_helper_detects_stall():
    # A sanity check of the test harness itself: an engine whose DAG has
    # one node completes in one step.
    dag = DagDescription("one")
    dag.add_job("n0", JobSpec(name="n0", payload=JobPayload(phase="A")))
    order = drive(DagmanEngine(dag), np.random.default_rng(0))
    assert order == ["n0"]


def test_counts_sum_invariant():
    dag = DagDescription("sum")
    for i in range(5):
        dag.add_job(f"n{i}", JobSpec(name=f"n{i}", payload=JobPayload(phase="A")))
    dag.add_edge("n0", "n1")
    engine = DagmanEngine(dag)
    for _ in range(3):
        batch = engine.pull_submissions(0)
        for name in batch:
            engine.on_node_result(name, True)
        counts = engine.counts()
        assert sum(counts.values()) == len(dag)
    assert engine.is_complete


@pytest.mark.parametrize("n", [1, 5, 20])
def test_linear_chain_completes_in_n_rounds(n):
    dag = DagDescription("chain")
    prev = None
    for i in range(n):
        dag.add_job(f"n{i}", JobSpec(name=f"n{i}", payload=JobPayload(phase="A")))
        if prev:
            dag.add_edge(prev, f"n{i}")
        prev = f"n{i}"
    engine = DagmanEngine(dag)
    rounds = 0
    while not engine.is_complete:
        batch = engine.pull_submissions(0)
        assert len(batch) == 1  # a chain releases one node at a time
        engine.on_node_result(batch[0], True)
        rounds += 1
    assert rounds == n

"""Property-based and failure-injection tests for the pool simulator.

These hammer the DES with randomized workloads and capacity processes
and check the invariants every valid schedule must satisfy — the pool
equivalent of the guide's "make it work reliably before optimizing".
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.condor.dagfile import DagDescription
from repro.condor.dagman import DagmanOptions
from repro.condor.jobs import JobPayload, JobSpec
from repro.core.config import FdwConfig
from repro.core.monitor import DagmanStats
from repro.core.submit_osg import run_fdw_batch
from repro.osg.capacity import FixedCapacity, MarkovModulatedCapacity
from repro.osg.pool import OSPoolConfig, OSPoolSimulator
from repro.osg.runtimes import RuntimeModel
from repro.osg.transfer import TransferConfig


def quiet_config(**kwargs):
    defaults = dict(
        transfer=TransferConfig(setup_overhead_s=1.0, include_image=False),
        success_prob=1.0,
    )
    defaults.update(kwargs)
    return OSPoolConfig(**defaults)


def random_layer_dag(rng: np.random.Generator, name="rdag") -> DagDescription:
    """A random layered DAG (layers model the FDW's phase structure)."""
    dag = DagDescription(name)
    n_layers = int(rng.integers(1, 4))
    previous: list[str] = []
    for layer in range(n_layers):
        width = int(rng.integers(1, 6))
        names = [f"{name}_{layer}_{i}" for i in range(width)]
        for node in names:
            dag.add_job(
                node,
                JobSpec(name=node, payload=JobPayload(phase="A", n_items=1, n_stations=2)),
            )
        if previous:
            dag.add_edges(previous, names)
        previous = names
    return dag


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_dags_complete_with_valid_schedules(seed):
    rng = np.random.default_rng(seed)
    dag = random_layer_dag(rng)
    capacity = FixedCapacity(int(rng.integers(1, 8)))
    pool = OSPoolSimulator(config=quiet_config(), capacity=capacity, seed=seed)
    pool.submit_dagman(dag)
    metrics = pool.run()

    # Every record is time-consistent (enforced at construction, but
    # assert the set covers the whole DAG exactly once).
    assert {r.node_name for r in metrics.records} == set(dag.node_names)
    # Dependency order holds for every edge.
    end_by_node = {r.node_name: r.end_time for r in metrics.records}
    start_by_node = {r.node_name: r.start_time for r in metrics.records}
    for parent in dag.node_names:
        for child in dag.children(parent):
            assert end_by_node[parent] <= start_by_node[child] + 1e-9


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_capacity_is_never_exceeded(seed):
    rng = np.random.default_rng(seed)
    slots = int(rng.integers(1, 5))
    dag = random_layer_dag(rng)
    pool = OSPoolSimulator(
        config=quiet_config(), capacity=FixedCapacity(slots), seed=seed
    )
    pool.submit_dagman(dag)
    metrics = pool.run()
    running = metrics.running_jobs()
    assert running.max() <= slots


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=10, deadline=None)
def test_log_and_recorder_agree_for_random_runs(seed):
    config = FdwConfig(n_waveforms=16, n_stations=3, mesh=(8, 5), name="prop")
    result = run_fdw_batch(config, capacity=FixedCapacity(6), seed=seed)
    stats = DagmanStats.from_log_text(result.user_logs["prop"].render())
    summary = result.metrics.dagmans["prop"]
    assert stats.runtime_s() == pytest.approx(summary.runtime_s, abs=2.0)
    n_success = sum(1 for r in result.metrics.for_dagman("prop") if r.success)
    assert stats.n_completed == n_success


class TestFailureInjection:
    def test_heavy_failures_with_retries_still_complete(self):
        dag = DagDescription("flaky")
        for i in range(20):
            dag.add_job(
                f"n{i}",
                JobSpec(name=f"n{i}", payload=JobPayload(phase="A")),
                retries=50,
            )
        pool = OSPoolSimulator(
            config=quiet_config(success_prob=0.5),
            capacity=FixedCapacity(4),
            seed=17,
        )
        pool.submit_dagman(dag)
        metrics = pool.run()
        assert pool.dagman_runs["flaky"].engine.is_complete
        failures = [r for r in metrics.records if not r.success]
        assert len(failures) > 3  # p=0.5 over 20+ attempts

    def test_zero_retries_dies_quickly(self):
        dag = DagDescription("fragile")
        for i in range(10):
            dag.add_job(f"n{i}", JobSpec(name=f"n{i}", payload=JobPayload(phase="A")))
        pool = OSPoolSimulator(
            config=quiet_config(success_prob=0.05),
            capacity=FixedCapacity(4),
            seed=3,
        )
        pool.submit_dagman(dag)
        pool.run()
        run = pool.dagman_runs["fragile"]
        assert run.dead and run.finished

    def test_eviction_storm_still_completes(self):
        """Capacity whipsawing between generous and starved: jobs get
        evicted repeatedly but the workload eventually drains."""
        capacity = MarkovModulatedCapacity(
            levels=[6, 1], mean_dwell_s=[120.0, 120.0], jitter=0.0
        )
        dag = DagDescription("stormy")
        for i in range(12):
            dag.add_job(
                f"n{i}",
                JobSpec(
                    name=f"n{i}",
                    payload=JobPayload(phase="A", n_items=30, n_stations=2),
                ),
            )
        pool = OSPoolSimulator(
            config=quiet_config(
                runtime=RuntimeModel(a_base_s=200.0, a_per_rupture_s=0.0, sigma_log=0.0)
            ),
            capacity=capacity,
            seed=5,
        )
        pool.submit_dagman(dag)
        metrics = pool.run()
        assert pool.dagman_runs["stormy"].engine.is_complete
        assert any(r.n_evictions > 0 for r in metrics.records)
        # Evicted jobs waited at least as long as their eviction gaps.
        evicted = [r for r in metrics.records if r.n_evictions > 0]
        for r in evicted:
            assert r.wait_s >= 0

    def test_preemption_disabled_lets_jobs_finish(self):
        capacity = MarkovModulatedCapacity(
            levels=[6, 1], mean_dwell_s=[120.0, 120.0], jitter=0.0
        )
        dag = DagDescription("nopreempt")
        for i in range(8):
            dag.add_job(
                f"n{i}",
                JobSpec(name=f"n{i}", payload=JobPayload(phase="A", n_items=30)),
            )
        pool = OSPoolSimulator(
            config=quiet_config(preemption=False),
            capacity=capacity,
            seed=5,
        )
        pool.submit_dagman(dag)
        metrics = pool.run()
        assert all(r.n_evictions == 0 for r in metrics.records)

    def test_throttled_engine_equivalent_results(self):
        """max_idle changes scheduling but never the set of completed
        work."""
        dag_names = None
        for max_idle in (1, 4, 0):
            config = FdwConfig(
                n_waveforms=12, n_stations=2, mesh=(8, 5), name="thr",
                max_idle=max_idle,
            )
            result = run_fdw_batch(config, capacity=FixedCapacity(4), seed=9)
            names = {r.node_name for r in result.metrics.for_dagman("thr") if r.success}
            if dag_names is None:
                dag_names = names
            assert names == dag_names

"""Failure recovery: rescue files, resubmission, HELD/RELEASED, and
fault injection on the OSPool simulator."""

import pytest

from repro.condor.dagfile import DagDescription, DagNode
from repro.condor.events import JobEventType, parse_user_log
from repro.condor.jobs import JobPayload, JobSpec
from repro.condor.rescue import read_rescue_file
from repro.core.config import FdwConfig
from repro.core.monitor import DagmanStats
from repro.core.workflow import build_fdw_dag
from repro.errors import SimulationError
from repro.osg.capacity import FixedCapacity
from repro.osg.metrics import PoolMetrics
from repro.osg.pool import OSPoolConfig, OSPoolSimulator, resubmit_with_rescue
from repro.osg.transfer import TransferConfig
from tests.osg.exactly_once import verify_exactly_once


def flat_dag(n_jobs=8, retries=0, name="r"):
    dag = DagDescription(name)
    for i in range(n_jobs):
        dag.add_job(
            f"{name}_{i}",
            JobSpec(name=f"{name}_{i}", payload=JobPayload(phase="A", n_items=1, n_stations=2)),
            retries=retries,
        )
    return dag


def pool_config(**kwargs):
    kwargs.setdefault("transfer", TransferConfig(setup_overhead_s=1.0, include_image=False))
    kwargs.setdefault("success_prob", 1.0)
    return OSPoolConfig(**kwargs)


def make_pool(tmp_path, seed=0, slots=4, **cfg_kwargs):
    return OSPoolSimulator(
        config=pool_config(**cfg_kwargs),
        capacity=FixedCapacity(slots),
        seed=seed,
        rescue_dir=tmp_path / "rescue",
    )


# -- rescue files on death -----------------------------------------------------


def test_dead_dagman_writes_rescue_file(tmp_path):
    pool = make_pool(tmp_path, seed=3, success_prob=0.5)
    pool.submit_dagman(flat_dag(8))
    pool.run()
    run = pool.dagman_runs["r"]
    assert run.dead
    assert run.rescue_file is not None
    assert run.rescue_file.name == "r.dag.rescue001"
    done = read_rescue_file(run.rescue_file)
    # The rescue snapshot is exactly the successful nodes of attempt 1.
    succeeded = {rec.node_name for rec in pool._records if rec.success}
    assert set(done) == succeeded
    assert 0 < len(done) < 8  # seed 3 at p=0.5: some succeed, some fail


def test_no_rescue_dir_means_no_rescue_file(tmp_path):
    pool = OSPoolSimulator(
        config=pool_config(success_prob=0.5), capacity=FixedCapacity(4), seed=3
    )
    pool.submit_dagman(flat_dag(8))
    pool.run()
    run = pool.dagman_runs["r"]
    assert run.dead
    assert run.rescue_file is None


def test_rescue_roundtrip_exactly_once(tmp_path):
    """Acceptance: terminal failure -> rescue file -> resubmission runs
    only the remaining nodes; merged metrics + parsed user logs account
    for every node exactly once."""
    dag = flat_dag(12)
    pool1 = make_pool(tmp_path, seed=3, success_prob=0.5)
    pool1.submit_dagman(dag)
    metrics1 = pool1.run()
    run1 = pool1.dagman_runs["r"]
    assert run1.dead and run1.rescue_file is not None
    done1 = set(read_rescue_file(run1.rescue_file))

    pool2, run2 = resubmit_with_rescue(
        dag,
        run1.rescue_file,
        config=pool_config(),  # p=1: the retry attempt succeeds
        capacity=FixedCapacity(4),
        seed=7,
        rescue_dir=tmp_path / "rescue",
    )
    metrics2 = pool2.run()
    assert run2.engine.is_complete
    # Attempt 2 ran only the remainder.
    attempt2_nodes = {rec.node_name for rec in metrics2.records}
    assert attempt2_nodes == set(dag.node_names) - done1

    merged = PoolMetrics.merged([metrics1, metrics2])
    verify_exactly_once(dag, merged)
    assert merged.dagmans["r"].n_jobs == 24  # both attempts' summaries merged

    # Cross-check through the monitoring pipeline: completions across
    # both user logs sum to the DAG size, failures only in attempt 1.
    stats1 = DagmanStats.from_log_text(pool1.dagman_runs["r"].user_log.render())
    stats2 = DagmanStats.from_log_text(pool2.dagman_runs["r"].user_log.render())
    assert stats1.n_completed + stats2.n_completed == len(dag)
    assert stats1.n_failed == 12 - len(done1)
    assert stats2.n_failed == 0


def test_run_until_interrupt_writes_rescue_and_resumes(tmp_path):
    dag = flat_dag(40)
    pool1 = make_pool(tmp_path, seed=1, slots=2)
    pool1.submit_dagman(dag)
    metrics1 = pool1.run(until=400.0)
    run1 = pool1.dagman_runs["r"]
    assert not run1.engine.is_complete
    assert run1.rescue_file is not None
    done1 = set(read_rescue_file(run1.rescue_file))
    assert done1  # partial progress was snapshotted

    pool2, run2 = resubmit_with_rescue(
        dag,
        run1.rescue_file,
        config=pool_config(),
        capacity=FixedCapacity(4),
        seed=2,
    )
    metrics2 = pool2.run()
    assert run2.engine.is_complete
    verify_exactly_once(dag, PoolMetrics.merged([metrics1, metrics2]))


def test_rescue_attempt_numbers_increment(tmp_path):
    for seed in (3, 4):
        pool = make_pool(tmp_path, seed=seed, success_prob=0.5)
        pool.submit_dagman(flat_dag(8))
        pool.run()
        assert pool.dagman_runs["r"].dead
    names = sorted(p.name for p in (tmp_path / "rescue").iterdir())
    assert names == ["r.dag.rescue001", "r.dag.rescue002"]


def test_verify_exactly_once_rejects_rerun_and_loss(tmp_path):
    dag = flat_dag(4)
    pool = make_pool(tmp_path)
    pool.submit_dagman(dag)
    metrics = pool.run()
    verify_exactly_once(dag, metrics)
    with pytest.raises(SimulationError, match="exactly once"):
        verify_exactly_once(dag, PoolMetrics.merged([metrics, metrics]))  # duplicated
    with pytest.raises(SimulationError, match="exactly once"):
        verify_exactly_once(dag, PoolMetrics(records=[], dagmans=dict(metrics.dagmans)))


# -- kill_dagman ---------------------------------------------------------------


def test_kill_dagman_mid_flight(tmp_path):
    config = FdwConfig(n_waveforms=8, n_stations=2, mesh=(8, 5), name="fdw")
    dag = build_fdw_dag(config)
    pool1 = make_pool(tmp_path, slots=2)
    pool1.submit_dagman(dag, name="fdw")
    pool1.sim.schedule_at(300.0, lambda: pool1.kill_dagman("fdw"))
    metrics1 = pool1.run()
    run1 = pool1.dagman_runs["fdw"]
    assert run1.dead and run1.finished
    assert run1.rescue_file is not None
    done1 = set(read_rescue_file(run1.rescue_file))
    assert 0 < len(done1) < len(dag)
    # Killed jobs show up as ABORTED in the user log.
    events = parse_user_log(run1.user_log.render())
    assert any(e.event_type is JobEventType.ABORTED for e in events)

    pool2, run2 = resubmit_with_rescue(
        dag, run1.rescue_file, name="fdw", config=pool_config(), capacity=FixedCapacity(4)
    )
    metrics2 = pool2.run()
    assert run2.engine.is_complete
    verify_exactly_once(dag, PoolMetrics.merged([metrics1, metrics2]))


def test_kill_dagman_validates(tmp_path):
    pool = make_pool(tmp_path)
    pool.submit_dagman(flat_dag(4))
    with pytest.raises(SimulationError, match="unknown"):
        pool.kill_dagman("nope")
    pool.run()
    with pytest.raises(SimulationError, match="finished"):
        pool.kill_dagman("r")


# -- HELD / RELEASED -----------------------------------------------------------


def test_holds_exhaust_then_fail(tmp_path):
    """A job that keeps failing is held max_job_holds times (HELD then
    RELEASED in the log), then fails terminally."""
    pool = make_pool(tmp_path, success_prob=1e-9, max_job_holds=2)
    pool.submit_dagman(flat_dag(1))
    metrics = pool.run()
    run = pool.dagman_runs["r"]
    assert run.dead
    stats = DagmanStats.from_log_text(run.user_log.render())
    job = next(iter(stats.jobs.values()))
    assert job.n_holds == 2
    assert job.failed
    events = parse_user_log(run.user_log.render())
    kinds = [e.event_type for e in events]
    assert kinds.count(JobEventType.HELD) == 2
    assert kinds.count(JobEventType.RELEASED) == 2
    assert kinds.count(JobEventType.EXECUTE) == 3  # initial + 2 releases
    assert kinds.count(JobEventType.TERMINATED) == 1
    # Exactly one terminal record despite three attempts.
    assert len(metrics.records) == 1
    assert not metrics.records[0].success


def test_holds_absorb_transient_failures(tmp_path):
    """With a hold budget, a retry-less DAG survives transient failures
    that would otherwise kill it."""
    dag = flat_dag(8)
    dead_pool = make_pool(tmp_path, seed=3, success_prob=0.5)
    dead_pool.submit_dagman(dag)
    dead_pool.run()
    assert dead_pool.dagman_runs["r"].dead  # without holds: terminal failure

    held_pool = make_pool(tmp_path, seed=3, success_prob=0.5, max_job_holds=20)
    held_pool.submit_dagman(flat_dag(8))
    metrics = held_pool.run()
    run = held_pool.dagman_runs["r"]
    assert run.engine.is_complete
    stats = DagmanStats.from_log_text(run.user_log.render())
    assert sum(j.n_holds for j in stats.jobs.values()) >= 1
    assert stats.n_completed == 8
    verify_exactly_once(flat_dag(8), metrics)


def test_default_config_emits_no_holds(tmp_path):
    """max_job_holds=0 (default) preserves the hold-free behaviour."""
    pool = make_pool(tmp_path, seed=3, success_prob=0.5)
    pool.submit_dagman(flat_dag(8))
    pool.run()
    events = parse_user_log(pool.dagman_runs["r"].user_log.render())
    assert not any(
        e.event_type in (JobEventType.HELD, JobEventType.RELEASED) for e in events
    )


# -- fault injection hooks -----------------------------------------------------


def test_inject_eviction_reconciles_counts(tmp_path):
    """Forced evictions: every node still yields exactly one terminal
    record, and eviction counts agree between PoolMetrics and the
    parsed user log."""
    dag = flat_dag(10)
    pool = make_pool(tmp_path, slots=4)
    pool.submit_dagman(dag)
    evicted = []
    pool.sim.schedule_at(30.0, lambda: evicted.append(pool.inject_eviction(2)))
    pool.sim.schedule_at(60.0, lambda: evicted.append(pool.inject_eviction(1)))
    metrics = pool.run()
    assert evicted == [2, 1]
    verify_exactly_once(dag, metrics)
    # One terminal record per node, none duplicated or lost.
    assert sorted(r.node_name for r in metrics.records) == sorted(dag.node_names)
    # Eviction counts reconcile with the log.
    stats = DagmanStats.from_log_text(pool.dagman_runs["r"].user_log.render())
    assert sum(j.n_evictions for j in stats.jobs.values()) == 3
    by_cluster = {r.cluster_id: r.n_evictions for r in metrics.records}
    for cluster_id, timing in stats.jobs.items():
        assert by_cluster[cluster_id] == timing.n_evictions


def test_inject_hold_releases_and_completes(tmp_path):
    dag = flat_dag(6)
    pool = make_pool(tmp_path, slots=3, hold_release_s=20.0)
    pool.submit_dagman(dag)
    held = []
    pool.sim.schedule_at(10.0, lambda: held.append(pool.inject_hold(2)))
    metrics = pool.run()
    assert held == [2]
    assert pool.dagman_runs["r"].engine.is_complete
    verify_exactly_once(dag, metrics)
    stats = DagmanStats.from_log_text(pool.dagman_runs["r"].user_log.render())
    assert sum(j.n_holds for j in stats.jobs.values()) == 2


def test_injection_validates_count(tmp_path):
    pool = make_pool(tmp_path)
    with pytest.raises(SimulationError):
        pool.inject_eviction(0)
    with pytest.raises(SimulationError):
        pool.inject_hold(0)


# -- merged metrics ------------------------------------------------------------


def test_merged_metrics_spans_attempts():
    from repro.osg.metrics import DagmanSummary, JobRecord

    a = PoolMetrics(
        records=[
            JobRecord(
                node_name="n0", dagman="d", phase="A", cluster_id=1,
                submit_time=0.0, start_time=1.0, end_time=2.0, success=False,
            )
        ],
        dagmans={"d": DagmanSummary(name="d", submit_time=0.0, end_time=2.0, n_jobs=1)},
        capacity_trace=[(0.0, 4)],
    )
    b = PoolMetrics(
        records=[
            JobRecord(
                node_name="n0", dagman="d", phase="A", cluster_id=1,
                submit_time=5.0, start_time=6.0, end_time=7.0, success=True,
            )
        ],
        dagmans={"d": DagmanSummary(name="d", submit_time=5.0, end_time=7.0, n_jobs=1)},
        capacity_trace=[(5.0, 4)],
    )
    merged = PoolMetrics.merged([a, b])
    assert len(merged.records) == 2
    assert merged.dagmans["d"].submit_time == 0.0
    assert merged.dagmans["d"].end_time == 7.0
    assert merged.dagmans["d"].n_jobs == 2
    assert merged.capacity_trace == [(0.0, 4), (5.0, 4)]
    with pytest.raises(SimulationError):
        PoolMetrics.merged([])

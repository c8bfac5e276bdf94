"""Failure recovery on the OSPool simulator: rescue files of dead
DAGMans, resubmission, and preemption's eviction accounting."""

import pytest

from repro.cli import main
from repro.condor.dagfile import DagDescription, DagNode
from repro.condor.dagman import DagmanOptions
from repro.condor.events import JobEventType, parse_user_log
from repro.condor.jobs import JobPayload, JobSpec
from repro.condor.rescue import read_rescue_file
from repro.core.config import FdwConfig
from repro.core.monitor import DagmanStats
from repro.core.submit_osg import run_fdw_batch
from repro.core.workflow import build_fdw_dag
from repro.errors import SimulationError
from repro.osg.capacity import FixedCapacity, MarkovModulatedCapacity
from repro.osg.metrics import PoolMetrics
from repro.osg.pool import OSPoolConfig, OSPoolSimulator, resubmit_with_rescue
from repro.osg.runtimes import RuntimeModel
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


# -- FDW batches and the CLI ------------------------------------------------------


def test_fdw_batch_rescue_then_recover(tmp_path, capsys):
    """A 64-waveform FDW without retries dies at pool seed 1 after four
    completed nodes. ``run_fdw_batch`` returns its rescue file, and a
    resubmission from it completes the DAG with every node run exactly
    once; the CLI's ``run`` exits 1 naming the rescue file, and
    ``recover`` from it exits 0."""
    cfg = tmp_path / "fdw.cfg"
    assert main(["init", str(cfg), "--waveforms", "64"]) == 0
    text = cfg.read_text()
    assert "retries = 3\n" in text
    cfg.write_text(text.replace("retries = 3\n", "retries = 0\n"))
    config = FdwConfig.read(cfg)
    assert (config.name, config.retries) == ("fdw", 0)
    dag = build_fdw_dag(config)

    batch = run_fdw_batch(config, seed=1, rescue_dir=tmp_path / "lib")
    rescue = tmp_path / "lib" / "fdw.dag.rescue001"
    assert batch.rescue_files == {"fdw": rescue}
    assert len(read_rescue_file(rescue)) == 4
    pool, run = resubmit_with_rescue(
        dag, rescue, options=DagmanOptions(max_idle=config.max_idle), name="fdw", seed=0
    )
    metrics = pool.run()
    assert run.engine.is_complete and not run.dead
    verify_exactly_once(dag, PoolMetrics.merged([batch.metrics, metrics]))

    capsys.readouterr()
    cli_dir = tmp_path / "cli"
    assert main(["run", str(cfg), "--seed", "1", "--rescue-dir", str(cli_dir)]) == 1
    cli_rescue = cli_dir / "fdw.dag.rescue001"
    assert f"DAGMan fdw failed; rescue file: {cli_rescue}" in capsys.readouterr().out
    assert cli_rescue.read_text() == rescue.read_text()
    assert main(["recover", str(cfg), str(cli_rescue), "--seed", "0"]) == 0
    assert "rescued 4 completed node(s)" in capsys.readouterr().out


# -- preemption and user-log events ---------------------------------------------


def test_preemption_eviction_counts_reconcile():
    """Capacity-drop evictions: every node still yields exactly one
    terminal record, and eviction counts agree between PoolMetrics and
    the parsed user log."""
    dag = flat_dag(10)
    pool = OSPoolSimulator(
        config=pool_config(
            runtime=RuntimeModel(a_base_s=300.0, a_per_rupture_s=0.0, sigma_log=0.0)
        ),
        capacity=MarkovModulatedCapacity(
            levels=[6, 1], mean_dwell_s=[150.0, 150.0], jitter=0.0
        ),
        seed=2,
    )
    pool.submit_dagman(dag)
    metrics = pool.run()
    verify_exactly_once(dag, metrics)
    # One terminal record per node, none duplicated or lost.
    assert sorted(r.node_name for r in metrics.records) == sorted(dag.node_names)
    # Eviction counts reconcile with the log.
    stats = DagmanStats.from_log_text(pool.dagman_runs["r"].user_log.render())
    n_evictions = sum(j.n_evictions for j in stats.jobs.values())
    assert n_evictions > 0  # capacity drops preempted running jobs
    assert n_evictions == sum(r.n_evictions for r in metrics.records)
    by_cluster = {r.cluster_id: r.n_evictions for r in metrics.records}
    for cluster_id, timing in stats.jobs.items():
        assert by_cluster[cluster_id] == timing.n_evictions


def test_default_config_emits_no_holds(tmp_path):
    """The pool models no holds or removals: a run whose failed attempts
    end its DAGMan logs no HELD, RELEASED or ABORTED event."""
    pool = make_pool(tmp_path, seed=3, success_prob=0.5)
    pool.submit_dagman(flat_dag(8))
    pool.run()
    assert pool.dagman_runs["r"].dead
    events = parse_user_log(pool.dagman_runs["r"].user_log.render())
    assert not any(
        e.event_type in (JobEventType.HELD, JobEventType.RELEASED, JobEventType.ABORTED)
        for e in events
    )


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

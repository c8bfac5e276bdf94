"""Tests for repro.core.submit_osg."""

import pytest

from repro.core.config import FdwConfig
from repro.core.partition import partition_config
from repro.core.stats import average_total_runtime, average_total_throughput
from repro.core.submit_osg import run_fdw_batch
from repro.errors import SimulationError
from repro.osg.capacity import FixedCapacity


def test_single_dagman_result(tiny_batch_result, tiny_fdw_config):
    name = tiny_fdw_config.name
    assert tiny_batch_result.dagman_names == [name]
    assert tiny_batch_result.runtime_s(name) > 0
    assert tiny_batch_result.throughput_jpm(name) > 0
    assert name in tiny_batch_result.user_logs
    assert "000 (" in tiny_batch_result.user_logs[name].render()


def test_job_count_matches_plan(tiny_batch_result, tiny_fdw_config):
    from repro.core.phases import plan_phases

    plan = plan_phases(tiny_fdw_config)
    assert tiny_batch_result.metrics.dagmans[tiny_fdw_config.name].n_jobs == plan.n_jobs


def test_concurrent_partitions_complete():
    config = FdwConfig(n_waveforms=32, n_stations=4, mesh=(8, 5), name="multi")
    parts = partition_config(config, 2)
    result = run_fdw_batch(parts, capacity=FixedCapacity(12), seed=1)
    assert len(result.dagman_names) == 2
    assert result.batch_makespan_s() >= max(
        result.runtime_s(n) for n in result.dagman_names
    ) - 1e-6
    runtimes = [result.runtime_s(n) for n in result.dagman_names]
    jobs = [result.metrics.dagmans[n].n_jobs for n in result.dagman_names]
    assert average_total_runtime(runtimes) > 0
    assert average_total_throughput(jobs, runtimes) > 0
    assert result.batch_throughput_jpm() > 0


def test_stagger_offsets_submissions():
    config = FdwConfig(n_waveforms=16, n_stations=4, mesh=(8, 5), name="stag")
    parts = partition_config(config, 2)
    result = run_fdw_batch(parts, capacity=FixedCapacity(8), seed=2, stagger_s=500.0)
    subs = sorted(d.submit_time for d in result.metrics.dagmans.values())
    assert subs == [0.0, 500.0]


def test_duplicate_names_rejected():
    config = FdwConfig(n_waveforms=8, name="dup")
    with pytest.raises(SimulationError):
        run_fdw_batch([config, config])


def test_empty_batch_rejected():
    with pytest.raises(SimulationError):
        run_fdw_batch([])


def test_negative_stagger_rejected():
    config = FdwConfig(n_waveforms=8, name="x")
    with pytest.raises(SimulationError):
        run_fdw_batch(config, stagger_s=-1.0)


def test_deterministic_given_seed():
    config = FdwConfig(n_waveforms=16, n_stations=4, mesh=(8, 5), name="det")
    a = run_fdw_batch(config, capacity=FixedCapacity(8), seed=5)
    b = run_fdw_batch(config, capacity=FixedCapacity(8), seed=5)
    assert a.runtime_s("det") == b.runtime_s("det")
    assert a.user_logs["det"].render() == b.user_logs["det"].render()

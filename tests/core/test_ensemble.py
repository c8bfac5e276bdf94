"""Tests for repro.core.ensemble."""

import pytest

from repro.core.config import FdwConfig
from repro.core.ensemble import run_repeated
from repro.errors import SimulationError
from repro.osg.capacity import FixedCapacity


@pytest.fixture(scope="module")
def point():
    config = FdwConfig(n_waveforms=32, n_stations=3, mesh=(8, 5), name="ens")
    return run_repeated(config, repeats=3, capacity=FixedCapacity(10))


def test_counts(point):
    assert len(point.results) == 3
    assert len(point.runtimes_s) == 3  # one DAGMan per repeat
    assert all(r > 0 for r in point.runtimes_s)
    assert len(set(point.job_counts)) == 1  # same DAG every repeat


def test_statistics_consistent(point):
    alpha = point.average_total_runtime_s()
    assert min(point.runtimes_s) <= alpha <= max(point.runtimes_s)
    beta = point.average_total_throughput_jpm()
    assert beta == pytest.approx(point.throughput_summary_jpm().mean, rel=1e-9)


def test_row_shape(point):
    runtime_h, sd_h, jpm, sd_jpm = point.row()
    assert runtime_h > 0 and jpm > 0
    assert sd_h >= 0 and sd_jpm >= 0


def test_repeats_differ(point):
    # Different derived seeds => different realized runtimes.
    assert len(set(point.runtimes_s)) > 1


def test_reproducible():
    config = FdwConfig(n_waveforms=16, n_stations=3, mesh=(8, 5), name="rep")
    a = run_repeated(config, repeats=2, capacity=FixedCapacity(6))
    b = run_repeated(config, repeats=2, capacity=FixedCapacity(6))
    assert a.runtimes_s == b.runtimes_s


def test_seed_key_isolates_experiments():
    config = FdwConfig(n_waveforms=16, n_stations=3, mesh=(8, 5), name="iso")
    a = run_repeated(config, repeats=1, capacity=FixedCapacity(6), seed="x")
    b = run_repeated(config, repeats=1, capacity=FixedCapacity(6), seed="y")
    assert a.runtimes_s != b.runtimes_s


def test_partitioned_point():
    config = FdwConfig(n_waveforms=32, n_stations=3, mesh=(8, 5), name="ens2")
    point = run_repeated(config, repeats=2, n_dagmans=2, capacity=FixedCapacity(10))
    # 2 repeats x 2 DAGMans = 4 per-DAGMan samples.
    assert len(point.runtimes_s) == 4
    assert point.n_dagmans == 2


def test_validation():
    config = FdwConfig(n_waveforms=16, name="bad")
    with pytest.raises(SimulationError):
        run_repeated(config, repeats=0)

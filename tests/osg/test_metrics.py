"""Tests for repro.osg.metrics."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.osg.metrics import DagmanSummary, JobRecord, PoolMetrics


def record(node, dagman="d", phase="C", sub=0.0, start=10.0, end=100.0, success=True):
    return JobRecord(
        node_name=node,
        dagman=dagman,
        phase=phase,
        cluster_id=hash(node) % 10**6,
        submit_time=sub,
        start_time=start,
        end_time=end,
        success=success,
    )


@pytest.fixture()
def metrics():
    records = [
        record("a", sub=0.0, start=60.0, end=120.0, phase="A"),
        record("b", sub=0.0, start=60.0, end=180.0),
        record("c", sub=30.0, start=120.0, end=240.0),
    ]
    return PoolMetrics(
        records=records,
        dagmans={"d": DagmanSummary(name="d", submit_time=0.0, end_time=240.0, n_jobs=3)},
    )


def test_record_validation():
    with pytest.raises(SimulationError):
        JobRecord(
            node_name="x",
            dagman="d",
            phase="A",
            cluster_id=1,
            submit_time=10.0,
            start_time=5.0,  # before submit
            end_time=20.0,
        )


def test_record_derived_times():
    r = record("x", sub=5.0, start=20.0, end=80.0)
    assert r.wait_s == 15.0
    assert r.exec_s == 60.0


def test_summary_throughput():
    s = DagmanSummary(name="d", submit_time=0.0, end_time=600.0, n_jobs=30)
    assert s.runtime_s == 600.0
    assert s.throughput_jpm == pytest.approx(3.0)


def test_for_dagman(metrics):
    assert len(metrics.for_dagman("d")) == 3
    with pytest.raises(SimulationError):
        metrics.for_dagman("nope")


def test_phase_filter(metrics):
    assert sum(r.phase == "A" for r in metrics.records) == 1
    assert sum(r.phase == "C" for r in metrics.records) == 2


def test_wait_and_exec_times_sorted(metrics):
    waits = metrics.wait_times_s()
    assert list(waits) == sorted(waits)
    assert waits[0] == 60.0
    execs = metrics.exec_times_s(phase="C")
    assert list(execs) == [120.0, 120.0]


def test_instant_throughput_shape_and_values(metrics):
    series = metrics.instant_throughput_jpm("d")
    assert series.shape == (240,)
    # Before the first completion, throughput is 0.
    assert np.all(series[:119] == 0.0)
    # At t=120s, one job complete: 1 job / 2 min = 0.5 JPM.
    assert series[119] == pytest.approx(1.0 / 2.0)
    # Final value: 3 jobs over 4 minutes.
    assert series[-1] == pytest.approx(3.0 / 4.0)


def test_instant_throughput_counts_only_successes():
    records = [record("a", end=60.0), record("b", end=60.0, success=False)]
    m = PoolMetrics(
        records=records,
        dagmans={"d": DagmanSummary("d", 0.0, 120.0, 2)},
    )
    series = m.instant_throughput_jpm("d")
    assert series[-1] == pytest.approx(1.0 / 2.0)


def test_running_jobs_profile(metrics):
    running = metrics.running_jobs("d")
    assert running.shape == (240,)
    assert running[59] == 0  # just before the first starts
    assert running[60] == 2
    assert running[130] == 2  # a finished at 120, c started at 120
    assert running[200] == 1
    assert running.max() == 2


def test_window_requires_dagmans():
    with pytest.raises(SimulationError):
        PoolMetrics().instant_throughput_jpm()

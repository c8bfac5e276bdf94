"""Tests for repro.core.monitor — log-derived statistics."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.condor.events import JobEventType, UserLog, parse_user_log
from repro.core.config import FdwConfig
from repro.core.monitor import DagmanStats
from repro.core.submit_osg import run_fdw_batch
from repro.errors import LogParseError
from repro.osg.capacity import FixedCapacity
from repro.service.runner import PoolRunner
from repro.vdc.portal import Portal


def build_log():
    log = UserLog()
    # Job 1: normal life cycle.
    log.record(JobEventType.SUBMIT, 1, 0.0)
    log.record(JobEventType.EXECUTE, 1, 100.0, host="slot-1")
    log.record(JobEventType.TERMINATED, 1, 400.0, return_value=0)
    # Job 2: evicted once, then completes.
    log.record(JobEventType.SUBMIT, 2, 10.0)
    log.record(JobEventType.EXECUTE, 2, 60.0, host="slot-2")
    log.record(JobEventType.EVICTED, 2, 90.0)
    log.record(JobEventType.EXECUTE, 2, 200.0, host="slot-3")
    log.record(JobEventType.TERMINATED, 2, 500.0, return_value=0)
    # Job 3: fails.
    log.record(JobEventType.SUBMIT, 3, 20.0)
    log.record(JobEventType.EXECUTE, 3, 120.0, host="slot-4")
    log.record(JobEventType.TERMINATED, 3, 220.0, return_value=1)
    # Job 4: still idle (no execute).
    log.record(JobEventType.SUBMIT, 4, 30.0)
    return log


@pytest.fixture()
def parsed():
    return DagmanStats.from_log_text(build_log().render())


def test_job_counts(parsed):
    assert parsed.n_jobs == 4
    assert parsed.n_completed == 2
    assert parsed.n_failed == 1


def test_eviction_counted_and_last_execute_used(parsed):
    job2 = parsed.jobs[2]
    assert job2.n_evictions == 1
    assert job2.start_time == 200.0
    assert job2.exec_s == 300.0
    assert job2.wait_s == 190.0  # last execute - submit


def test_runtime_first_submit_to_last_termination(parsed):
    assert parsed.runtime_s() == 500.0


def test_total_throughput(parsed):
    # 2 completed over 500 s.
    assert parsed.total_throughput_jpm() == pytest.approx(2.0 / (500.0 / 60.0))


def test_wait_and_exec_arrays(parsed):
    waits = parsed.wait_times_s()
    assert list(waits) == sorted(waits)
    assert len(waits) == 3  # job 4 never started
    execs = parsed.exec_times_s()
    assert len(execs) == 3
    assert np.all(execs > 0)


def test_idle_job_timing(parsed):
    job4 = parsed.jobs[4]
    assert job4.start_time is None
    assert job4.wait_s is None
    assert not job4.completed and not job4.failed


def test_report_contains_headlines(parsed):
    report = parsed.report("demo")
    assert "demo" in report
    assert "4 submitted" in report
    assert "2 completed" in report
    assert "1 failed" in report
    assert "jobs/min" in report


def test_unknown_return_value_counts_as_failed():
    """Regression: TERMINATED with a missing/unparseable detail line
    (return_value None) was neither completed nor failed, silently
    deflating both counters."""
    text = (
        "000 (0005.000.000) 2023-01-01+0 00:00:00 Job submitted from host: <s>\n"
        "...\n"
        "001 (0005.000.000) 2023-01-01+0 00:01:00 Job executing on host: <w>\n"
        "...\n"
        "005 (0005.000.000) 2023-01-01+0 00:02:00 Job terminated.\n"
        "...\n"
    )
    stats = DagmanStats.from_log_text(text)
    job = stats.jobs[5]
    assert job.return_value is None
    assert job.failed
    assert not job.completed
    assert stats.n_failed == 1
    assert stats.n_completed == 0


def test_held_events_counted():
    log = UserLog()
    log.record(JobEventType.SUBMIT, 1, 0.0)
    log.record(JobEventType.EXECUTE, 1, 10.0, host="slot-1")
    log.record(JobEventType.HELD, 1, 20.0)
    log.record(JobEventType.RELEASED, 1, 80.0)
    log.record(JobEventType.EXECUTE, 1, 90.0, host="slot-2")
    log.record(JobEventType.TERMINATED, 1, 200.0, return_value=0)
    stats = DagmanStats.from_log_text(log.render())
    assert stats.jobs[1].n_holds == 1
    assert stats.jobs[1].completed


def test_duplicate_submit_rejected():
    log = UserLog()
    log.record(JobEventType.SUBMIT, 1, 0.0)
    log.record(JobEventType.SUBMIT, 1, 5.0)
    with pytest.raises(LogParseError):
        DagmanStats.from_log_text(log.render())


def test_empty_log_runtime_rejected():
    stats = DagmanStats.from_log_text("")
    with pytest.raises(LogParseError):
        stats.runtime_s()


def test_from_log_file(tmp_path, parsed):
    path = build_log().write(tmp_path / "dag.log")
    stats = DagmanStats.from_log_file(path)
    assert stats.n_jobs == parsed.n_jobs


def test_missing_log_file(tmp_path):
    with pytest.raises(LogParseError):
        DagmanStats.from_log_file(tmp_path / "nope.log")


def test_log_derived_stats_match_simulator(tiny_batch_result, tiny_fdw_config):
    """The monitoring path (text only) agrees with the recorder."""
    name = tiny_fdw_config.name
    stats = DagmanStats.from_log_text(tiny_batch_result.user_logs[name].render())
    summary = tiny_batch_result.metrics.dagmans[name]
    assert stats.n_completed == sum(
        1 for r in tiny_batch_result.metrics.for_dagman(name) if r.success
    )
    assert stats.runtime_s() == pytest.approx(summary.runtime_s, abs=2.0)
    assert stats.total_throughput_jpm() == pytest.approx(
        summary.throughput_jpm, rel=0.02
    )


# The pool writes hosts ``schedd-<dagman name>`` and ``slot-<n>``.
_HOSTS = st.text(alphabet=string.ascii_letters + string.digits + "_.-", max_size=16)
_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
    st.integers(min_value=0, max_value=10**6).map(lambda s: s + 0.5),  # ties
)
_RETURN_VALUES = st.one_of(st.none(), st.just(0), st.integers(-128, 255))
_CLUSTERS = st.one_of(
    st.integers(min_value=0, max_value=99), st.integers(min_value=10_000, max_value=10**7)
)


@st.composite
def user_logs(draw):
    """Random logs: each job submits, then records any events at all
    (a second SUBMIT included), with a host and a return value on each."""
    log = UserLog()
    for cluster in draw(st.lists(_CLUSTERS, unique=True, max_size=8)):
        log.record(JobEventType.SUBMIT, cluster, draw(_TIMES), host=draw(_HOSTS))
        events = st.tuples(st.sampled_from(JobEventType), _TIMES, _HOSTS, _RETURN_VALUES)
        for event_type, time_s, host, return_value in draw(st.lists(events, max_size=8)):
            log.record(event_type, cluster, time_s, host=host, return_value=return_value)
    return log


@given(user_logs())
@settings(max_examples=200, deadline=None)
def test_recorded_events_read_like_the_rendered_text(log):
    """In-process monitoring sees exactly what the text path would."""
    text = log.render()
    assert log.events() == parse_user_log(text)
    try:
        expected = DagmanStats.from_log_text(text)
    except LogParseError:
        with pytest.raises(LogParseError, match="duplicate submit"):
            DagmanStats.from_user_log(log)
    else:
        assert DagmanStats.from_user_log(log) == expected


def test_pool_runs_render_no_log_text(monkeypatch):
    """Text exists only where a caller asks for it: `run_fdw_batch`,
    the portal and the pool backend read the recorded events."""

    def render(self):
        raise AssertionError("UserLog.render called")

    monkeypatch.setattr(UserLog, "render", render)
    config = FdwConfig(n_waveforms=16, n_stations=3, mesh=(8, 5), name="quiet")
    result = run_fdw_batch(config, capacity=FixedCapacity(6), seed=3)
    assert len(result.user_logs["quiet"]) > 0
    run = Portal(capacity=FixedCapacity(6)).launch(config, seed=3)
    assert run.stats.n_completed == result.metrics.dagmans["quiet"].n_jobs
    outcome = PoolRunner(capacity=FixedCapacity(6)).execute(config, seed=3)
    assert outcome.n_jobs == run.stats.n_jobs

"""Tests for repro.osg.jobtable.

The table's rows are held to the frozen oracle :class:`Job` (the record
the reference pool engine keeps per attempt) on every column the table
keeps; an unset timestamp is NaN in the table where it is None there.
"""

import math

import pytest

from repro.condor.jobs import JobSpec, JobState
from repro.errors import JobStateError
from repro.osg.jobtable import STATES, JobTable
from tests.oracles.pool_reference import Job


def specs(n, prefix="job"):
    return [JobSpec(name=f"{prefix}{i}") for i in range(n)]


def table_with(n, submit_time=10.0, cluster_start=100):
    table = JobTable()
    rows = table.add_batch(specs(n), cluster_start, submit_time)
    return table, rows


def as_oracle(t):
    """A timestamp column value as the oracle Job holds it."""
    return None if math.isnan(t) else t


def test_add_batch_initial_state():
    table, rows = table_with(3)
    assert rows == range(0, 3)
    assert len(table) == 3
    assert [STATES[table.state[i]] for i in rows] == [JobState.IDLE] * 3
    assert [table.cluster_id[i] for i in rows] == [100, 101, 102]
    assert [table.submit_time[i] for i in rows] == [10.0] * 3
    assert [table.n_evictions[i] for i in rows] == [0] * 3
    assert [spec.name for spec in table.specs] == ["job0", "job1", "job2"]


def test_growth_preserves_rows():
    table = JobTable(capacity=2)
    for batch in range(10):
        table.add_batch(specs(7, prefix=f"b{batch}-"), batch * 7 + 1, float(batch))
    assert len(table) == 70
    assert len(table.state) >= 70
    # Earliest rows survived every doubling.
    assert table.cluster_id[0] == 1
    assert table.submit_time[0] == 0.0
    assert table.cluster_id[69] == 70
    assert table.submit_time[69] == 9.0
    assert table.specs[69].name == "b9-6"
    assert {STATES[table.state[i]] for i in range(70)} == {JobState.IDLE}
    # Rows past the last batch still read as unset.
    assert STATES[table.state[70]] is JobState.UNSUBMITTED
    assert math.isnan(table.submit_time[70])


def test_transitions_mirror_job():
    """Drive a row and the oracle Job through the same path; the
    columns the table keeps must agree with the Job's fields."""
    table, _ = table_with(1, submit_time=5.0)
    job = Job(JobSpec(name="job0"))
    job.transition(JobState.IDLE, 5.0)
    path = [
        (JobState.RUNNING, 20.0),
        (JobState.IDLE, 30.0),  # eviction re-queue
        (JobState.HELD, 35.0),
        (JobState.IDLE, 38.0),  # release
        (JobState.RUNNING, 40.0),
        (JobState.FAILED, 60.0),
        (JobState.IDLE, 61.0),  # retry
        (JobState.RUNNING, 70.0),
        (JobState.COMPLETED, 90.0),
    ]
    for state, t in path:
        table.transition(0, state, t)
        job.transition(state, t)
        assert STATES[table.state[0]] is job.state
        assert as_oracle(table.submit_time[0]) == job.submit_time
        assert as_oracle(table.start_time[0]) == job.start_time
    assert table.start_time[0] - table.submit_time[0] == job.wait_time == 65.0


def test_illegal_transition_message_matches_job():
    table, _ = table_with(1, cluster_start=7)
    job = Job(JobSpec(name="job0"), cluster_id=7)
    job.transition(JobState.IDLE, 10.0)
    with pytest.raises(JobStateError) as table_err:
        table.transition(0, JobState.COMPLETED, 20.0)
    with pytest.raises(JobStateError) as job_err:
        job.transition(JobState.COMPLETED, 20.0)
    assert str(table_err.value) == str(job_err.value)


def test_requeue_clears_start_and_slot():
    """A re-queue clears the execution record and keeps the submission
    stamp. The table keeps no slot column; the oracle Job's slot clears
    with its start time, and the table's start time clears with it."""
    table, _ = table_with(1)
    job = Job(JobSpec(name="job0"))
    job.transition(JobState.IDLE, 10.0)
    table.transition(0, JobState.RUNNING, 20.0)
    job.transition(JobState.RUNNING, 20.0)
    job.slot_name = "slot-42"
    assert table.start_time[0] == job.start_time == 20.0
    table.transition(0, JobState.IDLE, 25.0)
    job.transition(JobState.IDLE, 25.0)
    assert STATES[table.state[0]] is job.state is JobState.IDLE
    assert as_oracle(table.start_time[0]) is job.start_time is None
    assert job.slot_name is None
    assert table.submit_time[0] == job.submit_time == 10.0  # survives re-queue


def test_unset_timestamps_are_none():
    """A submitted row has not started: its start time is unset, as the
    oracle Job's is None."""
    table, _ = table_with(1)
    job = Job(JobSpec(name="job0"))
    job.transition(JobState.IDLE, 10.0)
    assert as_oracle(table.start_time[0]) is job.start_time is None
    assert as_oracle(table.submit_time[0]) == job.submit_time == 10.0


def test_capacity_validation():
    with pytest.raises(JobStateError):
        JobTable(capacity=0)

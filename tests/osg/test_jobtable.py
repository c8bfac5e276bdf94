"""Tests for repro.osg.jobtable."""

import pytest

from repro.condor.jobs import Job, JobSpec, JobState
from repro.errors import JobStateError
from repro.osg.jobtable import JobTable, JobView


def specs(n, prefix="job"):
    return [JobSpec(name=f"{prefix}{i}") for i in range(n)]


def table_with(n, submit_time=10.0, cluster_start=100):
    table = JobTable()
    names = [f"node{i}" for i in range(n)]
    rows = table.add_batch(names, specs(n), 0, cluster_start, submit_time)
    return table, rows


def test_add_batch_initial_state():
    table, rows = table_with(3)
    assert rows == range(0, 3)
    assert len(table) == 3
    assert [JobView(table, i).state for i in rows] == [JobState.IDLE] * 3
    assert [JobView(table, i).cluster_id for i in rows] == [100, 101, 102]
    assert [JobView(table, i).submit_time for i in rows] == [10.0] * 3
    assert table.node_names == ["node0", "node1", "node2"]


def test_add_batch_length_mismatch():
    with pytest.raises(JobStateError):
        JobTable().add_batch(["a"], specs(2), 0, 1, 0.0)


def test_growth_preserves_rows():
    table = JobTable(capacity=2)
    for batch in range(10):
        table.add_batch(
            [f"n{batch}-{i}" for i in range(7)],
            specs(7, prefix=f"b{batch}-"),
            batch,
            batch * 7 + 1,
            float(batch),
        )
    assert len(table) == 70
    assert len(table.state) >= 70
    # Earliest rows survived every doubling.
    assert JobView(table, 0).cluster_id == 1
    assert JobView(table, 0).submit_time == 0.0
    assert table.dagman[69] == 9
    assert {JobView(table, i).state for i in range(70)} == {JobState.IDLE}
    # Rows past the last batch still read as unset.
    assert JobView(table, 70).state is JobState.UNSUBMITTED
    assert JobView(table, 70).submit_time is None


def test_transitions_mirror_job():
    """Drive a row and a Job through the same path; fields must agree."""
    table, _ = table_with(1, submit_time=5.0)
    view = JobView(table, 0)
    job = Job(JobSpec(name="job0"))
    job.transition(JobState.IDLE, 5.0)
    path = [
        (JobState.RUNNING, 20.0),
        (JobState.IDLE, 30.0),  # eviction re-queue
        (JobState.RUNNING, 40.0),
        (JobState.COMPLETED, 90.0),
    ]
    for state, t in path:
        view.transition(state, t)
        job.transition(state, t)
        assert view.state is job.state
        assert view.submit_time == job.submit_time
        assert view.start_time == job.start_time
        assert view.end_time == job.end_time
    assert view.wait_time == job.wait_time == 35.0
    assert view.execution_time == job.execution_time == 50.0
    assert view.is_terminal and job.is_terminal


def test_illegal_transition_message_matches_job():
    table, _ = table_with(1, cluster_start=7)
    job = Job(JobSpec(name="job0"), cluster_id=7)
    job.transition(JobState.IDLE, 10.0)
    with pytest.raises(JobStateError) as view_err:
        table.transition(0, JobState.COMPLETED, 20.0)
    with pytest.raises(JobStateError) as job_err:
        job.transition(JobState.COMPLETED, 20.0)
    assert str(view_err.value) == str(job_err.value)


def test_requeue_clears_start_and_slot():
    table, _ = table_with(1)
    view = JobView(table, 0)
    view.transition(JobState.RUNNING, 20.0)
    table.slot[0] = 42
    assert view.slot_name == "slot-42"
    view.transition(JobState.IDLE, 25.0)
    assert view.start_time is None
    assert view.slot_name is None
    assert view.n_retries == 1
    assert view.submit_time == 10.0  # submission stamp survives re-queue


def test_unset_timestamps_are_none():
    table, _ = table_with(1)
    view = JobView(table, 0)
    assert view.start_time is None
    assert view.end_time is None
    assert view.wait_time is None
    assert view.execution_time is None
    assert not view.is_terminal


def test_capacity_validation():
    with pytest.raises(JobStateError):
        JobTable(capacity=0)

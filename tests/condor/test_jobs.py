"""Tests for repro.condor.jobs: job specs and the job lifecycle.

The lifecycle runs on the pool's :class:`~repro.osg.jobtable.JobTable`,
the program's one job state machine; a row enters it submitted (IDLE).
"""

import math

import pytest

from repro.condor.jobs import _TRANSITIONS, JobPayload, JobSpec, JobState
from repro.errors import JobStateError
from repro.osg.jobtable import STATES, JobTable


def submitted(t=0.0):
    """A table holding one job (row 0), submitted at ``t``."""
    table = JobTable()
    table.add_batch([JobSpec(name="j")], 1, t)
    return table


def state(table):
    return STATES[table.state[0]]


def test_happy_path_transitions():
    table = submitted(10.0)
    table.transition(0, JobState.RUNNING, 20.0)
    table.transition(0, JobState.COMPLETED, 50.0)
    assert state(table) is JobState.COMPLETED
    assert table.submit_time[0] == 10.0
    assert table.start_time[0] == 20.0


def test_illegal_transition_raises():
    table = submitted()
    with pytest.raises(JobStateError):
        table.transition(0, JobState.COMPLETED, 0.0)  # idle -> completed
    assert state(table) is JobState.IDLE


def test_completed_is_terminal():
    table = submitted()
    table.transition(0, JobState.RUNNING, 1.0)
    table.transition(0, JobState.COMPLETED, 2.0)
    with pytest.raises(JobStateError):
        table.transition(0, JobState.IDLE, 3.0)


def test_eviction_requeues_and_clears_execution():
    table = submitted()
    table.transition(0, JobState.RUNNING, 5.0)
    table.transition(0, JobState.IDLE, 8.0)  # evicted
    assert table.submit_time[0] == 0.0  # original submit retained
    assert math.isnan(table.start_time[0])
    table.transition(0, JobState.RUNNING, 9.0)  # the next claim stamps anew
    assert table.start_time[0] == 9.0
    assert table.submit_time[0] == 0.0


def test_failed_can_retry():
    table = submitted()
    table.transition(0, JobState.RUNNING, 1.0)
    table.transition(0, JobState.FAILED, 2.0)
    table.transition(0, JobState.IDLE, 3.0)
    assert state(table) is JobState.IDLE


def test_hold_release_cycle():
    table = submitted()
    table.transition(0, JobState.HELD, 1.0)
    table.transition(0, JobState.IDLE, 2.0)
    assert state(table) is JobState.IDLE


def test_every_move_follows_the_lifecycle_table():
    """Each (from, to) pair is legal exactly when the lifecycle lists it."""
    for source in JobState:
        for target in JobState:
            table = submitted()
            table.state[0] = STATES.index(source)
            if target in _TRANSITIONS[source]:
                table.transition(0, target, 1.0)
                assert state(table) is target
            else:
                with pytest.raises(JobStateError):
                    table.transition(0, target, 1.0)
                assert state(table) is source


def test_spec_validation():
    with pytest.raises(JobStateError):
        JobSpec(name="")
    with pytest.raises(JobStateError):
        JobSpec(name="x", request_cpus=0)
    with pytest.raises(JobStateError):
        JobSpec(name="x", request_memory_mb=0)
    with pytest.raises(JobStateError):
        JobSpec(name="x", input_files={"f": -1.0})


def test_payload_validation():
    with pytest.raises(JobStateError):
        JobPayload(phase="Z")
    with pytest.raises(JobStateError):
        JobPayload(phase="A", n_items=0)
    payload = JobPayload(phase="C", n_items=2, n_stations=121)
    assert payload.phase == "C"

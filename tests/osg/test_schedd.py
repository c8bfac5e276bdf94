"""Tests for repro.osg.schedd."""

import pytest

from repro.condor.jobs import Job, JobSpec, JobState
from repro.errors import SimulationError
from repro.osg.schedd import ScheddQueue


def idle_job(t=0.0):
    job = Job(JobSpec(name="j"))
    job.transition(JobState.IDLE, t)
    return job


def test_fifo_order():
    q = ScheddQueue("q")
    a, b = idle_job(), idle_job()
    q.enqueue("na", a)
    q.enqueue("nb", b)
    assert q.pop() == ("na", a)
    assert q.pop() == ("nb", b)


def test_front_requeue():
    q = ScheddQueue("q")
    a, b = idle_job(), idle_job()
    q.enqueue("na", a)
    q.enqueue("nb", b, front=True)
    assert q.pop()[0] == "nb"


def test_len_and_n_idle():
    q = ScheddQueue("q")
    assert len(q) == 0 and q.n_idle == 0
    q.enqueue("n", idle_job())
    assert len(q) == 1 and q.n_idle == 1


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        ScheddQueue("q").pop()


def test_enqueue_requires_idle_state():
    q = ScheddQueue("q")
    job = Job(JobSpec(name="j"))  # still UNSUBMITTED
    with pytest.raises(SimulationError):
        q.enqueue("n", job)


def test_enqueue_many_preserves_fifo():
    q = ScheddQueue("q")
    jobs = [idle_job() for _ in range(3)]
    q.enqueue_many([(f"n{i}", j) for i, j in enumerate(jobs)])
    assert q.n_idle == 3
    assert [q.pop()[0] for _ in range(3)] == ["n0", "n1", "n2"]

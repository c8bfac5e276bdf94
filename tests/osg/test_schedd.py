"""Tests for repro.osg.schedd.

A queue holds opaque items (the pool's job-table rows, the portal's
executions); that every row the pool queues is IDLE is pinned at pool
level (``tests/osg/test_pool.py::test_queued_rows_are_idle``).
"""

import pytest

from repro.errors import SimulationError
from repro.osg.schedd import ScheddQueue


def test_fifo_order():
    q = ScheddQueue("q")
    a, b = object(), object()
    q.enqueue("na", a)
    q.enqueue("nb", b)
    assert q.pop() == ("na", a)
    assert q.pop() == ("nb", b)


def test_front_requeue():
    q = ScheddQueue("q")
    q.enqueue("na", 0)
    q.enqueue("nb", 1, front=True)
    assert q.pop() == ("nb", 1)


def test_len_and_n_idle():
    q = ScheddQueue("q")
    assert len(q) == 0 and q.n_idle == 0
    q.enqueue("n", 0)
    assert len(q) == 1 and q.n_idle == 1


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        ScheddQueue("q").pop()


def test_enqueue_many_preserves_fifo():
    q = ScheddQueue("q")
    q.enqueue_many([(f"n{i}", i) for i in range(3)])
    assert q.n_idle == 3
    assert [q.pop() for _ in range(3)] == [("n0", 0), ("n1", 1), ("n2", 2)]

"""Tests for repro.osg.negotiator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.condor.jobs import Job, JobSpec, JobState
from repro.errors import SimulationError
from repro.osg.negotiator import NegotiatorConfig, negotiate
from repro.osg.schedd import ScheddQueue
from tests.oracles.negotiator_vectorized import negotiate_vectorized


def queue_with(name, n):
    q = ScheddQueue(name)
    for i in range(n):
        job = Job(JobSpec(name=f"{name}{i}"))
        job.transition(JobState.IDLE, 0.0)
        q.enqueue(f"{name}{i}", job)
    return q


def test_single_queue_fifo():
    q = queue_with("a", 5)
    matches = negotiate([q], free_slots=3, config=NegotiatorConfig())
    assert [m[1] for m in matches] == ["a0", "a1", "a2"]
    assert q.n_idle == 2


def test_round_robin_across_queues():
    qa, qb = queue_with("a", 3), queue_with("b", 3)
    matches = negotiate([qa, qb], free_slots=4, config=NegotiatorConfig())
    assert [m[1] for m in matches] == ["a0", "b0", "a1", "b1"]


def test_fair_share_with_uneven_queues():
    qa, qb = queue_with("a", 1), queue_with("b", 5)
    matches = negotiate([qa, qb], free_slots=4, config=NegotiatorConfig())
    # a gets its single job, b fills the remainder.
    names = [m[1] for m in matches]
    assert names == ["a0", "b0", "b1", "b2"]


def test_match_limit_per_cycle():
    q = queue_with("a", 10)
    matches = negotiate(
        [q], free_slots=10, config=NegotiatorConfig(match_limit_per_cycle=4)
    )
    assert len(matches) == 4


def test_no_free_slots_no_matches():
    q = queue_with("a", 3)
    assert negotiate([q], free_slots=0, config=NegotiatorConfig()) == []
    assert q.n_idle == 3


def test_empty_queues_no_matches():
    assert negotiate([ScheddQueue("a")], 10, NegotiatorConfig()) == []


def test_negative_free_slots_rejected():
    with pytest.raises(SimulationError):
        negotiate([], -1, NegotiatorConfig())


def test_config_validation():
    with pytest.raises(SimulationError):
        NegotiatorConfig(cycle_s=0.0)
    with pytest.raises(SimulationError):
        NegotiatorConfig(match_limit_per_cycle=0)


def test_matches_reference_source_queue():
    qa, qb = queue_with("a", 2), queue_with("b", 2)
    matches = negotiate([qa, qb], free_slots=4, config=NegotiatorConfig())
    assert {m[0].name for m in matches} == {"a", "b"}
    # All four jobs drained.
    assert qa.n_idle == 0 and qb.n_idle == 0


# -- vectorized matcher ≡ scalar oracle ----------------------------------


def _run_both(sizes, free_slots, match_limit):
    config = NegotiatorConfig(match_limit_per_cycle=match_limit)
    scalar_qs = [queue_with(f"q{i}", n) for i, n in enumerate(sizes)]
    vector_qs = [queue_with(f"q{i}", n) for i, n in enumerate(sizes)]
    scalar = negotiate(scalar_qs, free_slots, config)
    vector = negotiate_vectorized(vector_qs, free_slots, config)
    return scalar_qs, scalar, vector_qs, vector


def assert_equivalent(sizes, free_slots, match_limit):
    scalar_qs, scalar, vector_qs, vector = _run_both(sizes, free_slots, match_limit)
    assert [(q.name, node) for q, node, _ in scalar] == [
        (q.name, node) for q, node, _ in vector
    ]
    assert [j.spec.name for _, _, j in scalar] == [j.spec.name for _, _, j in vector]
    assert [q.n_idle for q in scalar_qs] == [q.n_idle for q in vector_qs]


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=12),
    free_slots=st.integers(min_value=0, max_value=200),
    match_limit=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_vectorized_matches_scalar_property(sizes, free_slots, match_limit):
    assert_equivalent(sizes, free_slots, match_limit)


@pytest.mark.parametrize(
    ("sizes", "free_slots", "match_limit"),
    [
        ([5], 3, 1000),  # single-queue FIFO slice
        ([3, 3], 4, 1000),  # even round-robin
        ([1, 5], 4, 1000),  # short queue exhausts mid-cycle
        ([0, 0, 7], 20, 1000),  # empty queues skipped
        ([10, 10, 10], 30, 4),  # match limit binds before slots
        ([2, 9, 1, 6], 11, 11),  # budget == matches exactly
        # The portal's shape: 24 tenant queues of 0-2 jobs, 1-4 free slots.
        *(([i % 3 for i in range(24)], free, 400) for free in (1, 2, 3, 4)),
        ([(i // 2) % 3 for i in range(24)], 3, 400),
        # The pool's shape: a cycle limit of 8,000 over one or eight DAGMans.
        ([8000], 8000, 8000),
        ([1000] * 8, 8000, 8000),
        ([1000] * 8, 5003, 8000),
    ],
)
def test_vectorized_matches_scalar_cases(sizes, free_slots, match_limit):
    assert_equivalent(sizes, free_slots, match_limit)


def test_vectorized_negative_free_slots_rejected():
    with pytest.raises(SimulationError):
        negotiate_vectorized([], -1, NegotiatorConfig())

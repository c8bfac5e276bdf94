"""Oracle: the closed-form negotiator the pool used to call.

``negotiate_vectorized`` and ``_apportion`` are the pool's negotiator as
it shipped while ``src/`` carried two, frozen here so the equivalence
tests can hold the scalar round-robin :func:`repro.osg.negotiator.negotiate`
to an independent derivation of the same match order, and so the
``negotiator`` benchmark group can time the two against each other. The
bodies are unchanged except that each queue's slice is taken with
:meth:`~repro.osg.schedd.ScheddQueue.pop` (the batch ``pop_many`` left
``src/`` with this oracle).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.osg.negotiator import NegotiatorConfig
from repro.osg.schedd import ScheddQueue

__all__ = ["negotiate_vectorized"]


def _apportion(counts: np.ndarray, budget: int) -> np.ndarray:
    """Fair-share apportionment of ``budget`` matches across queues.

    Vectorized closed form of the scalar round-robin: find the largest
    number of *complete* rounds ``t`` the budget affords — i.e. the
    largest ``t`` with ``sum(min(counts, t)) <= budget`` (monotone, so a
    binary search over ``[0, max(counts)]``) — then hand the leftover
    matches one each to the earliest queues that still have a job past
    round ``t``, exactly the order the scalar loop would cut off
    mid-round. Returns the per-queue match counts.
    """
    lo, hi = 0, int(counts.max())
    while lo < hi:  # largest t with the clipped sum within budget
        mid = (lo + hi + 1) // 2
        if int(np.minimum(counts, mid).sum()) <= budget:
            lo = mid
        else:
            hi = mid - 1
    base = np.minimum(counts, lo)
    leftover = budget - int(base.sum())
    extra_idx = np.flatnonzero(counts > lo)[:leftover]
    m = base.copy()
    m[extra_idx] += 1
    return m


def negotiate_vectorized(
    queues: list[ScheddQueue],
    free_slots: int,
    config: NegotiatorConfig,
) -> list[tuple[ScheddQueue, str, object]]:
    """Run one negotiation cycle as array operations.

    Produces the *identical* match sequence as the scalar
    :func:`negotiate` oracle (asserted by a randomized property test),
    but in O(k log k + matches) instead of one queue-list rebuild per
    round: per-queue idle counts -> :func:`_apportion` fair share ->
    one batched FIFO slice per queue -> interleaved (round, queue)
    ordering reconstructed with a lexsort.
    """
    if free_slots < 0:
        raise SimulationError(f"free_slots must be >= 0, got {free_slots}")
    budget = min(free_slots, config.match_limit_per_cycle)
    active = [q for q in queues if q.n_idle > 0]
    if budget <= 0 or not active:
        return []
    counts = np.fromiter((q.n_idle for q in active), dtype=np.int64, count=len(active))
    m = _apportion(counts, budget)
    total = int(m.sum())
    if total == 0:
        return []
    popped = [[q.pop() for _ in range(int(n))] for q, n in zip(active, m)]
    # Each queue's slice is FIFO; the scalar loop emits them interleaved
    # round by round, queues in original order within a round.
    queue_pos = np.repeat(np.arange(len(active)), m)
    slice_starts = np.cumsum(m) - m
    rounds = np.arange(total) - np.repeat(slice_starts, m)
    order = np.lexsort((queue_pos, rounds))
    matches: list[tuple[ScheddQueue, str, object]] = []
    append = matches.append
    for flat in order:
        qi = int(queue_pos[flat])
        node_name, job = popped[qi][int(rounds[flat])]
        append((active[qi], node_name, job))
    return matches

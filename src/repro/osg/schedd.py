"""Schedd: the per-submitter job queue.

Each DAGMan in our experiments gets its own submitter queue (in OSG
terms they share a user but the negotiator interleaves their job
streams; modelling each as a queue captures the observed fair
interleaving directly). The schedd tracks idle jobs FIFO and per-queue
idle counts so DAGMan's ``max_idle`` throttle can be honoured.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.condor.jobs import Job, JobState

__all__ = ["ScheddQueue"]


class ScheddQueue:
    """FIFO idle queue for one submitter (one DAGMan instance)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._idle: deque[tuple[str, Job]] = deque()

    def __len__(self) -> int:
        return len(self._idle)

    @property
    def n_idle(self) -> int:
        """Jobs currently idle in this queue."""
        return len(self._idle)

    def enqueue(self, node_name: str, job: Job, front: bool = False) -> None:
        """Add an idle job; ``front=True`` re-queues an evicted job with
        its original priority (HTCondor keeps the original queue
        position on eviction)."""
        if job.state is not JobState.IDLE:
            raise SimulationError(
                f"job {job.spec.name} enqueued while {job.state.value}"
            )
        if front:
            self._idle.appendleft((node_name, job))
        else:
            self._idle.append((node_name, job))

    def enqueue_many(self, entries: list[tuple[str, Job]]) -> None:
        """Append a batch of freshly-submitted idle jobs (FIFO order).

        Batch counterpart of :meth:`enqueue` for the vectorized pool
        engine. The caller guarantees every job is IDLE — the batch
        submit path creates them in that state immediately before the
        call, so re-validating each would only re-check the invariant
        the table transition just enforced.
        """
        self._idle.extend(entries)

    def pop(self) -> tuple[str, Job]:
        """Remove and return the oldest idle job."""
        if not self._idle:
            raise SimulationError(f"schedd {self.name}: pop from empty queue")
        return self._idle.popleft()

    def peek_oldest_wait(self, now: float) -> float | None:
        """Queue age in seconds of the oldest idle job, or None.

        Entries whose job has no ``submit_time`` yet are skipped rather
        than masking the jobs queued behind them — the throttle probe
        must see the oldest *timed* wait, not give up at an untimed
        head entry.
        """
        for _, job in self._idle:
            if job.submit_time is not None:
                return now - job.submit_time
        return None

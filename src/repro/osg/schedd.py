"""Schedd: the per-submitter idle queue.

Each DAGMan in our experiments gets its own submitter queue (in OSG
terms they share a user but the negotiator interleaves their job
streams; modelling each as a queue captures the observed fair
interleaving directly), and the portal service gives each tenant one.
A queue is a FIFO of ``(name, item)`` pairs and knows nothing of job
state: the pool queues job-table rows it has just moved to IDLE, the
portal queues its pending executions. The idle count lets DAGMan's
``max_idle`` throttle be honoured.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError

__all__ = ["ScheddQueue"]


class ScheddQueue:
    """FIFO idle queue for one submitter (one DAGMan or tenant)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._idle: deque[tuple[str, object]] = deque()

    def __len__(self) -> int:
        return len(self._idle)

    @property
    def n_idle(self) -> int:
        """Items currently idle in this queue."""
        return len(self._idle)

    def enqueue(self, name: str, item: object, front: bool = False) -> None:
        """Add an idle item; ``front=True`` re-queues an evicted job with
        its original priority (HTCondor keeps the original queue
        position on eviction)."""
        if front:
            self._idle.appendleft((name, item))
        else:
            self._idle.append((name, item))

    def enqueue_many(self, entries: list[tuple[str, object]]) -> None:
        """Append a batch of ``(name, item)`` pairs in FIFO order."""
        self._idle.extend(entries)

    def pop(self) -> tuple[str, object]:
        """Remove and return the oldest idle ``(name, item)`` pair."""
        if not self._idle:
            raise SimulationError(f"schedd {self.name}: pop from empty queue")
        return self._idle.popleft()

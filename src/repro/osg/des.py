"""Discrete-event simulation core.

A minimal, deterministic event queue: callbacks scheduled at absolute or
relative simulation times, executed in (time, sequence) order so ties
break by scheduling order and runs are exactly reproducible. No
wall-clock coupling anywhere.

The heap holds ``(time, seq, callback)`` tuples. Sequence numbers are
unique, so ``heapq`` orders entries on ``(time, seq)`` at C speed and
never compares two callbacks. Events cannot be cancelled: a client that
must drop an event makes it a no-op instead, as the pool simulator does
by skipping completions whose running-set token is gone (see
``repro.osg.pool``). So every heap entry is live, ``pending`` is the
heap size, and scheduling is one push with no handle object.

The loop runs with CPython's cyclic collector paused
(:class:`repro.gcpause.collector_paused`): a pool's callbacks allocate
job records, log events and heap tuples that form no cycles, so the
collections their allocation rate would trigger — each a walk of the
whole live heap — find nothing that reference counting does not free.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from repro.errors import SimulationError
from repro.gcpause import collector_paused

__all__ = ["Simulator"]


class Simulator:
    """The event loop.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled events not yet fired. O(1)."""
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulation time ``time``.

        Raises
        ------
        SimulationError
            If ``time`` is before the current time, NaN or infinite.
        """
        time = float(time)
        # One chained comparison rejects the past, +inf and NaN (every
        # comparison with NaN is false).
        if not self._now <= time < math.inf:
            raise SimulationError(
                f"cannot schedule at {time}: event times must be finite and "
                f"not before the current time {self._now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def clear(self) -> None:
        """Drop every pending event (the clock stays where it is)."""
        self._heap.clear()

    @collector_paused()
    def run(
        self,
        until: float | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Process events in order.

        Parameters
        ----------
        until:
            Stop once the next event is strictly after this time (the
            clock is left at ``until``).
        stop_when:
            Predicate checked after every event; truthy stops the run.

        Raises
        ------
        SimulationError
            On re-entrant ``run`` calls.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self._now = max(self._now, until)
                    return
                time, _, callback = heappop(heap)
                self._now = time
                callback()
                if stop_when is not None and stop_when():
                    return
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False

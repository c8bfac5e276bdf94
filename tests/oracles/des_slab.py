"""Oracle: the slab event loop with cancellable handles.

The body below is ``repro.osg.des`` as it shipped while the pool kept a
second, one-object-per-job engine that cancelled the completion events
of evicted jobs. The product loop no longer hands out handles; this
frozen copy runs the reference pool engine in
``tests.oracles.pool_reference`` and is the loop the product's
``Simulator`` is compared against on random event programs. It shares no
code with the product loop, so every equivalence test also checks the
product's event order. ``clear`` came later: the pool's shared ``run``
drops its pending events on return, so this loop has one too.

Its own docstring, kept verbatim:

A minimal, deterministic event queue: callbacks scheduled at absolute or
relative simulation times, executed in (time, sequence) order so ties
break by scheduling order and runs are exactly reproducible. No
wall-clock coupling anywhere.

The event store is a *slab*: the heap holds compact ``(time, seq)``
tuples (compared at C speed by ``heapq``) while callbacks live in a flat
``seq``-keyed table. The table holds exactly the live events, so

* ``pending`` is O(1) — it is just the table size;
* cancellation is O(1) and lazy — the callback is dropped from the table
  and the heap tuple becomes a tombstone, discarded when it surfaces;
* when tombstones outnumber live entries (heavy eviction/re-scheduling
  workloads), the heap is compacted in one O(n) filter+heapify pass, so
  memory stays proportional to the *live* event count.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import SimulationError

__all__ = ["EventHandle", "Simulator"]

#: Below this heap size compaction is pointless bookkeeping.
_COMPACT_MIN_HEAP = 64


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule` for cancelling."""

    __slots__ = ("_sim", "_seq", "_time", "_cancelled")

    def __init__(self, sim: "Simulator", seq: int, time: float) -> None:
        self._sim = sim
        self._seq = seq
        self._time = time
        self._cancelled = False

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._time

    @property
    def cancelled(self) -> bool:
        """True once cancelled."""
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "scheduled"
        return f"EventHandle(t={self._time}, seq={self._seq}, {state})"


class Simulator:
    """The event loop.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int]] = []
        self._callbacks: dict[int, Callable[[], None]] = {}
        self._seq = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events. O(1)."""
        return len(self._callbacks)

    @property
    def n_tombstones(self) -> int:
        """Cancelled heap entries awaiting lazy discard (introspection)."""
        return len(self._heap) - len(self._callbacks)

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        seq = self.post_at(time, callback)
        return EventHandle(self, seq, float(time))

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Handle-free :meth:`schedule` (hot path for events never cancelled)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.post_at(self._now + delay, callback)

    def post_at(self, time: float, callback: Callable[[], None]) -> int:
        """Handle-free :meth:`schedule_at`; returns the event's sequence id."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._callbacks[seq] = callback
        heapq.heappush(self._heap, (float(time), seq))
        return seq

    @staticmethod
    def cancel(handle: EventHandle) -> None:
        """Cancel a scheduled event (idempotent)."""
        if handle._cancelled:
            return
        handle._cancelled = True
        sim = handle._sim
        if sim._callbacks.pop(handle._seq, None) is not None:
            sim._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once tombstones outnumber live entries."""
        heap = self._heap
        n_live = len(self._callbacks)
        if len(heap) > _COMPACT_MIN_HEAP and (len(heap) - n_live) * 2 > len(heap):
            live = self._callbacks
            # In place: run() holds a reference to this list across callbacks.
            heap[:] = [entry for entry in heap if entry[1] in live]
            heapq.heapify(heap)

    def clear(self) -> None:
        """Drop every pending event (the clock stays where it is)."""
        self._heap.clear()
        self._callbacks.clear()

    def run(
        self,
        until: float | None = None,
        stop_when: Callable[[], bool] | None = None,
        max_events: int | None = None,
    ) -> None:
        """Process events in order.

        Parameters
        ----------
        until:
            Stop once the next event is strictly after this time (the
            clock is left at ``until``).
        stop_when:
            Predicate checked after every event; truthy stops the run.
        max_events:
            Safety valve against runaway self-rescheduling loops.

        Raises
        ------
        SimulationError
            On re-entrant ``run`` calls or when ``max_events`` trips.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        processed = 0
        heap = self._heap
        callbacks = self._callbacks
        heappop = heapq.heappop
        try:
            while heap:
                time, seq = heap[0]
                callback = callbacks.get(seq)
                if callback is None:  # tombstone of a cancelled event
                    heappop(heap)
                    continue
                if until is not None and time > until:
                    self._now = max(self._now, until)
                    return
                heappop(heap)
                del callbacks[seq]
                self._now = time
                callback()
                processed += 1
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway event loop?"
                    )
                if stop_when is not None and stop_when():
                    return
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False

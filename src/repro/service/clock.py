"""Service time: a virtual clock the dispatcher advances itself.

Every backend behind the service is a simulator, so the service keeps
its books in *simulation seconds* too: submissions are stamped at the
current virtual time, an execution occupies a worker for the backend's
simulated makespan, and the clock jumps forward only when the dispatcher
completes the earliest running execution. Nothing in the service sleeps
on the wall clock, which is what makes a whole multi-tenant session
deterministic — the same submission trace produces the same timestamps,
the same placement, and the same products on every run (the property the
service test suite pins).
"""

from __future__ import annotations

from repro.errors import ServiceError

__all__ = ["VirtualClock"]


class VirtualClock:
    """Monotone simulated clock."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Jump forward to ``t``; moving backward is a bookkeeping bug."""
        if t < self._now:
            raise ServiceError(
                f"virtual clock cannot go backward: {t:.3f} < {self._now:.3f}"
            )
        self._now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(t={self._now:.1f}s)"

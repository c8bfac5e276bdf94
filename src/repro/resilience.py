"""Retry/backoff and circuit breakers for flaky federated infrastructure.

The OSPool/OSDF substrate the paper targets fails *routinely*: transfers
glitch, execute points vanish mid-job, cache sites go dark for hours.
Production gateways (VERCE's seismology portal is the canonical example)
survive by layering two mechanisms, both reproduced here in a fully
deterministic form:

* :class:`RetryPolicy` / :func:`retry_call` — bounded exponential
  backoff with **decorrelated jitter** (each delay is drawn uniformly
  from ``[base, 3 * previous]``, capped), seeded through the package's
  :class:`~repro.rng.RngFactory` so a given ``(seed, key path)`` always
  produces the identical retry schedule. Only errors whose
  :attr:`~repro.errors.ReproError.retryable` flag is set are retried;
  programming errors propagate on the first attempt.
* :class:`CircuitBreaker` — a per-resource (site, service) state machine
  that opens after N consecutive failures, rejects calls fast while
  open (:class:`~repro.errors.CircuitOpenError`), and probes recovery
  through a half-open trial call after a cooldown. Time is injected by
  the caller (simulation clock or wall clock), never read from the
  environment, keeping campaigns replayable.

Nothing in this module sleeps: delays are *returned and accounted*,
which is what the simulators need (they advance their own clocks) and
what keeps the test suite fast.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import CircuitOpenError, ReproError, SimulationError
from repro.rng import RngFactory

__all__ = [
    "RetryPolicy",
    "RetryOutcome",
    "retry_call",
    "is_retryable",
    "BreakerPolicy",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]


def is_retryable(exc: BaseException) -> bool:
    """Whether the backoff wrapper should re-attempt after this error.

    Library errors carry their own classification
    (:attr:`~repro.errors.ReproError.retryable`); anything else —
    ``KeyError``, ``ZeroDivisionError`` — is a programming error and is
    never retried.
    """
    return isinstance(exc, ReproError) and bool(exc.retryable)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with decorrelated jitter.

    Each delay is drawn uniformly from ``[base, 3 * previous]``
    (AWS-style decorrelated jitter — spreads a thundering herd without
    the full-jitter's long idle tails).

    Attributes
    ----------
    max_attempts:
        Total attempts (first try + retries).
    base_delay_s:
        Lower bound of every backoff delay; also the first draw's floor.
    max_delay_s:
        Cap on any single delay.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.5
    max_delay_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0:
            raise SimulationError(
                f"base_delay_s must be >= 0, got {self.base_delay_s}"
            )
        if self.max_delay_s < self.base_delay_s:
            raise SimulationError(
                f"max_delay_s ({self.max_delay_s}) must be >= base_delay_s "
                f"({self.base_delay_s})"
            )

    def delays(self, rng: np.random.Generator) -> list[float]:
        """The full backoff schedule: one delay per possible retry.

        Deterministic for a given generator state — two generators
        seeded identically yield identical schedules (the property the
        chaos campaigns and the hypothesis suite pin).
        """
        out: list[float] = []
        prev = self.base_delay_s
        for _ in range(self.max_attempts - 1):
            hi = max(self.base_delay_s, prev * 3.0)
            delay = float(rng.uniform(self.base_delay_s, hi))
            delay = min(delay, self.max_delay_s)
            out.append(delay)
            prev = delay
        return out

    def schedule(self, seed: int, *keys: str | int) -> list[float]:
        """Seed-derived schedule for a stable key path.

        ``schedule(seed, "transfer", job_id)`` is reproducible across
        processes and runs — the deterministic handle every subsystem
        uses instead of wall-clock randomness.
        """
        return self.delays(RngFactory(seed).generator("retry", *keys))


@dataclass
class RetryOutcome:
    """Result and accounting of one :func:`retry_call`.

    ``delays`` holds the backoff actually incurred (empty on first-try
    success); simulators fold ``total_delay_s`` into their clocks.
    """

    value: object
    attempts: int
    delays: list[float] = field(default_factory=list)

    @property
    def total_delay_s(self) -> float:
        """Backoff seconds the retries cost."""
        return float(sum(self.delays))


def retry_call(
    fn: Callable[[], object],
    policy: RetryPolicy | None = None,
    *,
    seed: int,
    keys: tuple[str | int, ...] = (),
    on_retry: Callable[[int, BaseException, float], None] | None = None,
) -> RetryOutcome:
    """Call ``fn`` under a retry policy; return value plus accounting.

    Parameters
    ----------
    fn:
        Zero-argument callable (close over the real arguments).
    policy:
        Backoff parameters; default :class:`RetryPolicy()`.
    seed, keys:
        Jitter source: the backoff delays are
        ``policy.schedule(seed, *keys)``.
    on_retry:
        Observer hook ``(attempt_number, exception, delay_s)`` fired
        before each retry.

    The delays are recorded, not slept: simulation time, not wall time.
    Raises the last exception when attempts are exhausted, and the first
    exception immediately when :func:`is_retryable` rejects it.
    """
    policy = policy or RetryPolicy()
    plan = policy.schedule(seed, *keys)
    delays: list[float] = []
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return RetryOutcome(value=fn(), attempts=attempt, delays=delays)
        except BaseException as exc:  # noqa: BLE001 - reclassified below
            if attempt >= policy.max_attempts or not is_retryable(exc):
                raise
            delay = plan[attempt - 1]
            delays.append(delay)
            if obs.enabled():
                obs.counter_add(
                    "repro_retry_attempts_total", 1,
                    {"error": type(exc).__name__},
                )
                obs.counter_add("repro_retry_backoff_seconds_total", delay)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
    raise AssertionError("unreachable")  # pragma: no cover


# -- circuit breakers ---------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Parameters of a per-resource circuit breaker.

    Attributes
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker open.
    cooldown_s:
        Seconds an open breaker rejects calls before allowing one
        half-open probe.
    probe_cost_s:
        Accounting charge for a failed attempt against a resource
        (connection timeout before the caller fails over) — what the
        storage layer adds to a retrieval that had to skip a dead site.
    """

    failure_threshold: int = 3
    cooldown_s: float = 600.0
    probe_cost_s: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise SimulationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s < 0:
            raise SimulationError(
                f"cooldown_s must be >= 0, got {self.cooldown_s}"
            )
        if self.probe_cost_s < 0:
            raise SimulationError(
                f"probe_cost_s must be >= 0, got {self.probe_cost_s}"
            )


class CircuitBreaker:
    """Closed → open → half-open failure isolation for one resource.

    Time is always injected (``now`` parameters) so the breaker works
    identically under a simulation clock and a wall clock, and campaigns
    replay deterministically.

    State machine:

    * **closed** — calls flow; ``failure_threshold`` *consecutive*
      failures (successes reset the count) trip it open.
    * **open** — :meth:`allow` rejects until ``cooldown_s`` has elapsed
      since the trip, then admits exactly one probe (→ half-open).
    * **half-open** — the probe's outcome decides: success closes the
      breaker, failure re-opens it (restarting the cooldown). Further
      calls while the probe is outstanding are rejected.
    """

    def __init__(self, name: str, policy: BreakerPolicy | None = None) -> None:
        self.name = name
        self.policy = policy or BreakerPolicy()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.n_opens = 0
        self.n_rejected = 0

    @property
    def state(self) -> str:
        """Current state name (``closed`` / ``open`` / ``half-open``)."""
        return self._state

    @property
    def consecutive_failures(self) -> int:
        """Failures since the last success (closed-state trip counter)."""
        return self._consecutive_failures

    def would_allow(self, now: float) -> bool:
        """Non-mutating :meth:`allow`: no transition, no rejection count.

        What health *queries* (prefetch site selection, reports) use —
        only a real call attempt should move the state machine.
        """
        if self._state == BREAKER_CLOSED:
            return True
        if self._state == BREAKER_OPEN:
            return now - self._opened_at >= self.policy.cooldown_s
        return False  # half-open: a probe is already in flight

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at time ``now``.

        An open breaker past its cooldown transitions to half-open and
        admits the caller as the probe; rejected calls are counted.
        """
        if self._state == BREAKER_CLOSED:
            return True
        if self._state == BREAKER_OPEN:
            if now - self._opened_at >= self.policy.cooldown_s:
                self._state = BREAKER_HALF_OPEN
                self._observe_transition(BREAKER_HALF_OPEN, now)
                return True
            self.n_rejected += 1
            obs.counter_add(
                "repro_breaker_rejections_total", 1, {"breaker": self.name}
            )
            return False
        # half-open: one probe is already in flight
        self.n_rejected += 1
        obs.counter_add(
            "repro_breaker_rejections_total", 1, {"breaker": self.name}
        )
        return False

    def record_success(self) -> None:
        """Report a successful call (closes a half-open breaker)."""
        if self._state != BREAKER_CLOSED:
            self._observe_transition(BREAKER_CLOSED, None)
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """Report a failed call at time ``now`` (may trip the breaker)."""
        self._consecutive_failures += 1
        if self._state == BREAKER_HALF_OPEN or (
            self._state == BREAKER_CLOSED
            and self._consecutive_failures >= self.policy.failure_threshold
        ):
            self._state = BREAKER_OPEN
            self._opened_at = now
            self.n_opens += 1
            self._observe_transition(BREAKER_OPEN, now)

    def _observe_transition(self, to: str, now: float | None) -> None:
        """Emit one state transition (counter + trace marker)."""
        if not obs.enabled():
            return
        obs.counter_add(
            "repro_breaker_transitions_total", 1,
            {"breaker": self.name, "to": to},
        )
        # The open/half-open edges carry the injected clock; closing via
        # record_success has no timestamp, so it stays counter-only.
        if now is not None:
            obs.instant(
                f"breaker:{self.name}:{to}", ts=now, category="resilience",
                track="breakers",
            )

    def call(self, fn: Callable[[], object], now: float) -> object:
        """Guarded invocation: reject fast when open, else record the
        outcome. Raises :class:`~repro.errors.CircuitOpenError` on
        rejection."""
        if not self.allow(now):
            raise CircuitOpenError(
                f"circuit breaker {self.name!r} is {self._state} "
                f"(opened at t={self._opened_at:.0f}s, "
                f"cooldown {self.policy.cooldown_s:.0f}s)"
            )
        try:
            result = fn()
        except BaseException:
            self.record_failure(now)
            raise
        self.record_success()
        return result

    def snapshot(self, now: float | None = None) -> dict:
        """Reportable state for campaign summaries."""
        out = {
            "name": self.name,
            "state": self._state,
            "consecutive_failures": self._consecutive_failures,
            "n_opens": self.n_opens,
            "n_rejected": self.n_rejected,
        }
        if now is not None and self._state == BREAKER_OPEN:
            remaining = self.policy.cooldown_s - (now - self._opened_at)
            out["cooldown_remaining_s"] = max(0.0, remaining)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CircuitBreaker({self.name!r}, state={self._state!r}, "
            f"failures={self._consecutive_failures})"
        )

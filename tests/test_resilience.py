"""Tests for repro.resilience (retry/backoff, circuit breakers)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CircuitOpenError,
    SimulationError,
    TransferError,
)
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerPolicy,
    CircuitBreaker,
    RetryPolicy,
    is_retryable,
    retry_call,
)


# -- RetryPolicy --------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(SimulationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(SimulationError):
        RetryPolicy(base_delay_s=-1.0)
    with pytest.raises(SimulationError):
        RetryPolicy(base_delay_s=5.0, max_delay_s=1.0)


def test_jittered_schedule_bounded_and_deterministic():
    policy = RetryPolicy(max_attempts=6, base_delay_s=0.5, max_delay_s=10.0)
    a = policy.schedule(7, "transfer", "job-3")
    b = policy.schedule(7, "transfer", "job-3")
    assert a == b  # same (seed, keys) -> identical schedule
    assert len(a) == 5
    prev = policy.base_delay_s
    for delay in a:
        hi = min(policy.max_delay_s, max(policy.base_delay_s, 3.0 * prev))
        assert policy.base_delay_s <= delay <= hi
        prev = delay
    assert policy.schedule(7, "transfer", "job-4") != a  # key path matters
    assert policy.schedule(8, "transfer", "job-3") != a  # seed matters


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    attempts=st.integers(min_value=2, max_value=8),
    base=st.floats(min_value=0.01, max_value=2.0),
)
def test_same_seed_same_schedule_property(seed, attempts, base):
    """Satellite (d): a retry schedule is a pure function of
    (policy, seed, key path) — the determinism the chaos campaigns pin."""
    policy = RetryPolicy(max_attempts=attempts, base_delay_s=base, max_delay_s=30.0)
    first = policy.schedule(seed, "transfer", "w17")
    assert first == policy.schedule(seed, "transfer", "w17")
    assert all(base <= d <= 30.0 for d in first)


# -- retry_call ---------------------------------------------------------------


def flaky(times, exc_factory=lambda n: TransferError(f"glitch {n}")):
    calls = []

    def fn():
        calls.append(None)
        if len(calls) <= times:
            raise exc_factory(len(calls))
        return "ok"

    fn.calls = calls
    return fn


def test_first_try_success_has_no_delays():
    out = retry_call(lambda: 42, seed=0)
    assert (out.value, out.attempts, out.delays) == (42, 1, [])
    assert out.total_delay_s == 0.0


def test_retries_retryable_until_success():
    fn = flaky(2)
    observed = []
    out = retry_call(
        fn,
        seed=3,
        keys=("t", 1),
        on_retry=lambda n, exc, d: observed.append((n, d)),
    )
    assert out.value == "ok" and out.attempts == 3
    assert len(out.delays) == 2 and out.total_delay_s == sum(out.delays)
    assert observed == [(1, out.delays[0]), (2, out.delays[1])]
    # The incurred delays are the head of the seeded schedule.
    assert out.delays == RetryPolicy().schedule(3, "t", 1)[:2]


def test_non_retryable_raises_immediately():
    fn = flaky(5, exc_factory=lambda n: KeyError("bug"))
    with pytest.raises(KeyError):
        retry_call(fn, seed=0)
    assert len(fn.calls) == 1


def test_exhaustion_raises_last_error():
    fn = flaky(99)
    with pytest.raises(TransferError, match="glitch 3"):
        retry_call(fn, policy=RetryPolicy(max_attempts=3), seed=0)
    assert len(fn.calls) == 3


def test_is_retryable_classification():
    assert is_retryable(TransferError("x"))
    assert not is_retryable(SimulationError("x"))
    assert not is_retryable(ZeroDivisionError())


# -- CircuitBreaker -----------------------------------------------------------


def test_breaker_policy_validation():
    with pytest.raises(SimulationError):
        BreakerPolicy(failure_threshold=0)
    with pytest.raises(SimulationError):
        BreakerPolicy(cooldown_s=-1.0)
    with pytest.raises(SimulationError):
        BreakerPolicy(probe_cost_s=-1.0)


def breaker(**kwargs):
    defaults = dict(failure_threshold=3, cooldown_s=100.0)
    defaults.update(kwargs)
    return CircuitBreaker("osdf-origin", BreakerPolicy(**defaults))


def test_trips_after_consecutive_failures_only():
    br = breaker()
    br.record_failure(0.0)
    br.record_failure(1.0)
    br.record_success()  # resets the consecutive count
    br.record_failure(2.0)
    br.record_failure(3.0)
    assert br.state == BREAKER_CLOSED
    br.record_failure(4.0)
    assert br.state == BREAKER_OPEN and br.n_opens == 1


def test_open_rejects_then_half_open_probe():
    br = breaker()
    for t in range(3):
        br.record_failure(float(t))
    assert not br.allow(10.0)  # still cooling down
    assert br.n_rejected == 1
    assert br.allow(2.0 + 100.0)  # cooldown elapsed: the probe is admitted
    assert br.state == BREAKER_HALF_OPEN
    assert not br.allow(103.0)  # second caller rejected while probing
    br.record_success()
    assert br.state == BREAKER_CLOSED


def test_half_open_failure_reopens():
    br = breaker()
    for t in range(3):
        br.record_failure(float(t))
    assert br.allow(102.0)
    br.record_failure(102.0)
    assert br.state == BREAKER_OPEN and br.n_opens == 2
    assert not br.allow(103.0)  # cooldown restarted from the re-open
    assert br.allow(202.0)


def test_would_allow_never_mutates():
    br = breaker()
    for t in range(3):
        br.record_failure(float(t))
    assert not br.would_allow(10.0)
    assert br.would_allow(200.0)  # cooldown elapsed...
    assert br.state == BREAKER_OPEN  # ...but no transition happened
    assert br.n_rejected == 0
    br.allow(200.0)
    assert br.state == BREAKER_HALF_OPEN
    assert not br.would_allow(999.0)  # probe in flight


def test_call_wraps_and_raises_circuit_open():
    br = breaker(failure_threshold=1)
    with pytest.raises(TransferError):
        br.call(lambda: (_ for _ in ()).throw(TransferError("down")), now=0.0)
    assert br.state == BREAKER_OPEN
    with pytest.raises(CircuitOpenError, match="osdf-origin"):
        br.call(lambda: "never", now=1.0)
    assert br.call(lambda: "back", now=101.0) == "back"
    assert br.state == BREAKER_CLOSED


def test_snapshot_reports_state_and_cooldown():
    br = breaker()
    snap = br.snapshot()
    assert snap == {
        "name": "osdf-origin",
        "state": BREAKER_CLOSED,
        "consecutive_failures": 0,
        "n_opens": 0,
        "n_rejected": 0,
    }
    for t in range(3):
        br.record_failure(float(t))
    snap = br.snapshot(now=42.0)
    assert snap["state"] == BREAKER_OPEN
    assert snap["cooldown_remaining_s"] == pytest.approx(100.0 - (42.0 - 2.0))

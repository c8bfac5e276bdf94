"""Tests for repro.osg.des."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.osg.des import Simulator
from tests.oracles.des_slab import Simulator as SlabSimulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(9.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    sim = Simulator()
    fired = []
    for tag in "abc":
        sim.schedule(3.0, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_now_advances():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append(sim.now)
        sim.schedule(1.0, lambda: fired.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == [1.0, 2.0]


def test_run_until_leaves_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    assert sim.pending == 1
    sim.run()
    assert fired == [1, 10]


def test_stop_when():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(stop_when=lambda: len(fired) >= 2)
    assert fired == [0, 1]


def test_max_events_guard():
    sim = Simulator()

    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        sim.run()

    sim.schedule(1.0, reenter)
    with pytest.raises(SimulationError):
        sim.run()


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_arbitrary_delays_fire_sorted(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run()
    assert fired == sorted(fired, key=float) or fired == sorted(fired)
    assert len(fired) == len(delays)


def test_schedule_returns_no_handle():
    sim = Simulator()
    fired = []
    assert sim.schedule(2.0, lambda: fired.append("schedule")) is None
    assert sim.schedule_at(1.0, lambda: fired.append("schedule_at")) is None
    sim.run()
    assert fired == ["schedule_at", "schedule"]
    assert sim.pending == 0


def test_non_finite_times_rejected():
    """Regression: a NaN time used to be accepted. Its event fired between
    the 3.0 and 5.0 events with ``now`` NaN, then the clock went back."""
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append(sim.now))
    sim.schedule(5.0, lambda: fired.append(sim.now))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: fired.append(sim.now))
    assert sim.pending == 2
    sim.run()
    assert fired == [3.0, 5.0]


# -- equivalence with the frozen slab loop -------------------------------------

#: Few distinct delays, so ties (same time, order by scheduling) are common.
DELAYS = st.sampled_from([0.0, 0.25, 1.0, 1.0, 3.0, 10.0])


@given(
    initial=st.lists(DELAYS, min_size=1, max_size=12),
    spawns=st.lists(
        st.lists(st.tuples(DELAYS, st.booleans()), max_size=3), max_size=40
    ),
    until=st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5, 3.0, 8.0])),
    stop_after=st.one_of(st.none(), st.integers(1, 30)),
)
@settings(max_examples=30, deadline=None)
def test_matches_frozen_slab_loop(initial, spawns, until, stop_after):
    """Random event programs fire in the same order at the same times.

    The n-th event to fire schedules the children listed in
    ``spawns[n]``, relative or absolute, so both loops run the same
    program only while their firing orders agree. The first ``run`` is
    bounded by ``until`` and ``stop_when``; the second drains the rest.
    """

    def play(sim):
        log = []

        def fire(label):
            n = len(log)
            log.append((label, sim.now))
            for j, (delay, absolute) in enumerate(spawns[n] if n < len(spawns) else ()):
                child = partial(fire, f"{label}.{j}")
                if absolute:
                    sim.schedule_at(sim.now + delay, child)
                else:
                    sim.schedule(delay, child)

        for i, delay in enumerate(initial):
            sim.schedule(delay, partial(fire, str(i)))
        stop_when = None if stop_after is None else (lambda: len(log) >= stop_after)
        sim.run(until=until, stop_when=stop_when)
        bounded = (list(log), sim.now, sim.pending)
        sim.run()
        return bounded, log, sim.now, sim.pending

    assert play(Simulator()) == play(SlabSimulator())

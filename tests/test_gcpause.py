"""The collector pause: its state contract, and why pausing the DES is safe.

The pool DES, the workflow builders and the FDW batch driver run with
CPython's cyclic collector paused. That is only safe while those scopes
leave (almost) no cyclic garbage behind, so the tests below pin both
halves: the pause restores the collector exactly, and seeded runs made
with the collector off leave a few dozen objects at most for
``gc.collect()`` to find.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

from repro.condor.dagman import DagmanOptions
from repro.core.config import FdwConfig
from repro.core.submit_osg import run_fdw_batch
from repro.core.workflow import build_fdw_dag
from repro.errors import SimulationError
from repro.gcpause import collector_paused
from repro.osg import des
from repro.osg.capacity import FixedCapacity
from repro.osg.pool import OSPoolConfig, OSPoolSimulator
from repro.wf import generate_instance, import_instance, load_instance, replay_instance

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "fdw64_wfformat.json"

#: Objects a seeded scope may leave for the cyclic collector.
GARBAGE_BUDGET = 48


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on and leaves it on."""
    assert gc.isenabled()
    yield
    gc.enable()


class Probe:
    """``gc.callbacks`` hook counting collections that start while armed."""

    def __init__(self) -> None:
        self.armed = False
        self.during = 0
        self.total = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.total += 1
            self.during += self.armed


@pytest.fixture
def probe():
    hook = Probe()
    gc.callbacks.append(hook)
    yield hook
    gc.callbacks.remove(hook)


def fdw_config(n_waveforms: int = 96) -> FdwConfig:
    return FdwConfig(n_waveforms=n_waveforms, n_stations=4, mesh=(8, 5), name="gc")


def garbage_left(fn) -> int:
    """Objects ``gc.collect()`` finds after ``fn()`` ran with the
    collector off (its result dropped)."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


class TestCollectorState:
    def test_restored_after_normal_exit(self):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restored_after_exception(self):
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("boom")
        assert gc.isenabled()

    def test_nested_scopes_restore_on_outermost_exit(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_entered_with_collector_off_leaves_it_off(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_decorator_pauses_each_call(self):
        @collector_paused()
        def inner():
            return gc.isenabled()

        @collector_paused()
        def outer():
            return inner(), gc.isenabled()

        assert outer() == (False, False)
        assert gc.isenabled()
        assert inner() is False
        assert gc.isenabled()
        assert outer.__name__ == "outer"

    def test_decorator_restores_after_exception(self):
        @collector_paused()
        def fails():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            fails()
        assert gc.isenabled()


class TestDesScope:
    def test_no_collection_inside_the_event_loop(self, probe, monkeypatch):
        run = des.Simulator.run

        def armed_run(self, *args, **kwargs):
            probe.armed = True
            try:
                return run(self, *args, **kwargs)
            finally:
                probe.armed = False

        monkeypatch.setattr(des.Simulator, "run", armed_run)
        # 577 jobs: enough allocation for several automatic collections
        # inside an unpaused loop.
        pool = OSPoolSimulator(capacity=FixedCapacity(16), seed=4)
        pool.submit_dagman(build_fdw_dag(fdw_config(1024)), DagmanOptions(max_idle=0))
        metrics = pool.run()
        assert {r.node_name for r in metrics.records if r.success} == set(
            pool.dagman_runs["gc"].engine.dag.node_names
        )
        assert probe.during == 0
        # The probe does see automatic collections outside the loop.
        junk = [[] for _ in range(10 * gc.get_threshold()[0])]
        assert probe.total > 0
        del junk

    def test_pool_drops_pending_events(self):
        pool = OSPoolSimulator(capacity=FixedCapacity(16), seed=4)
        pool.submit_dagman(build_fdw_dag(fdw_config()))
        pool.run()
        assert pool.sim.pending == 0

    def test_bounded_pool_run_drops_pending_events(self):
        """A run stopped by the ``max_sim_time_s`` guard drops its
        pending events too."""
        pool = OSPoolSimulator(
            OSPoolConfig(max_sim_time_s=600.0), capacity=FixedCapacity(16), seed=4
        )
        pool.submit_dagman(build_fdw_dag(fdw_config()))
        with pytest.raises(SimulationError, match="600.0s guard"):
            pool.run()
        assert pool.sim.pending == 0
        assert pool.sim.now == 600.0


class TestAcyclicScopes:
    def test_replay_instance_leaves_no_cyclic_garbage(self):
        workflow = import_instance(generate_instance(load_instance(EXAMPLE), 400, seed=2))
        found = garbage_left(
            lambda: replay_instance(workflow, seed=3, runtime="model", n_dagmans=2)
        )
        assert found <= GARBAGE_BUDGET

    def test_run_fdw_batch_leaves_no_cyclic_garbage(self):
        found = garbage_left(
            lambda: run_fdw_batch(fdw_config(), capacity=FixedCapacity(16), seed=5)
        )
        assert found <= GARBAGE_BUDGET

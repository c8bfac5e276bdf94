"""Observation is strictly passive: products and traces are pinned here.

Two guarantees, each load-bearing for the whole subsystem:

* **Bit-identity of products** — running any simulator under
  ``obs.observe()`` must leave every domain output (job records, queue
  traces, service results) identical to the un-observed run. The hooks
  never touch an RNG or reorder an event.
* **Byte-identity of exports** — a fixed seed produces byte-identical
  Chrome-trace JSON and Prometheus text across repeated observed runs:
  simulators stamp events with their own virtual time, and every
  exporter is canonical.
"""

from pathlib import Path

import pytest

from repro import obs
from repro.condor.dagman import DagmanOptions
from repro.obs.export import dump_chrome_trace, prometheus_text, service_timeline
from repro.osg.capacity import FixedCapacity
from repro.service import SimulatedRunner, run_service_demo
from repro.wf import generate_instance, import_instance, load_instance, replay_instance
from tests.oracles.pool_reference import on_reference_pool

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "fdw64_wfformat.json"


@pytest.fixture(scope="module")
def small_workflow():
    instance = generate_instance(load_instance(EXAMPLE), 60, seed=3)
    return import_instance(instance)


def _replay(workflow, engine):
    kwargs = dict(
        seed=0,
        runtime="model",
        capacity=FixedCapacity(32),
        options=DagmanOptions(max_idle=0, submit_batch=60),
    )
    if engine == "reference":
        return on_reference_pool(replay_instance, workflow, **kwargs)
    return replay_instance(workflow, **kwargs)


class TestPoolReplayIdentity:
    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_records_bit_identical_with_obs_enabled(self, small_workflow, engine):
        bare = _replay(small_workflow, engine)
        with obs.observe() as session:
            observed = _replay(small_workflow, engine)
        assert observed.metrics.records == bare.metrics.records
        # And the run really was observed, not silently skipped.
        assert session.registry.counter_total("repro_pool_jobs_total") == len(
            bare.metrics.records
        )

    def test_exports_byte_identical_across_runs(self, small_workflow):
        def export_once():
            with obs.observe() as session:
                _replay(small_workflow, "vector")
            return (
                dump_chrome_trace(session.tracer),
                prometheus_text(session.registry),
            )

        assert export_once() == export_once()


class TestServeDemoIdentity:
    def _demo(self):
        return run_service_demo(
            n_tenants=3, n_submissions=12, n_distinct=2, seed=7,
            n_workers=2, runner=SimulatedRunner(),
        )

    def test_products_bit_identical_with_obs_enabled(self):
        bare = self._demo()
        with obs.observe() as session:
            observed = self._demo()
        assert observed.trace == bare.trace
        assert observed.results == bare.results
        assert observed.stats == bare.stats
        assert session.registry.counter_total("repro_service_admissions_total") > 0

    def test_exports_byte_identical_across_runs(self):
        def export_once():
            with obs.observe() as session:
                report = self._demo()
                service_timeline(
                    report.trace, report.results, tracer=session.tracer
                )
            return (
                dump_chrome_trace(session.tracer),
                prometheus_text(session.registry),
            )

        assert export_once() == export_once()

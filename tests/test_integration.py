"""Cross-module integration tests.

These exercise the full pipelines the paper describes:

1. FDW on the simulated OSG -> user log -> monitoring stats,
2. OSG run -> trace CSVs -> bursting simulator -> policy effects,
3. local (single-machine) run equals the OSG-produced catalog,
4. the complete Fig 7 flow: portal -> catalog -> discovery -> retrieval.
"""

import numpy as np
import pytest

from repro.bursting import BurstingSimulator, LowThroughputPolicy, QueueTimePolicy
from repro.core.config import FdwConfig
from repro.core.local import LocalRunner
from repro.core.monitor import DagmanStats
from repro.core.partition import partition_config
from repro.core.phases import chunk_bounds
from repro.core.submit_osg import run_fdw_batch
from repro.core.traces import export_traces, read_traces
from repro.osg.capacity import FixedCapacity
from repro.seismo.fakequakes import FakeQuakes, FakeQuakesParameters


class TestFdwToMonitoring:
    def test_log_pipeline_matches_recorder(self, tiny_batch_result, tiny_fdw_config):
        name = tiny_fdw_config.name
        stats = DagmanStats.from_log_text(tiny_batch_result.user_logs[name].render())
        summary = tiny_batch_result.metrics.dagmans[name]
        assert stats.n_completed + stats.n_failed == len(
            tiny_batch_result.metrics.for_dagman(name)
        )
        assert stats.runtime_s() == pytest.approx(summary.runtime_s, abs=2.0)

    def test_phase_ordering_in_log(self, tiny_batch_result, tiny_fdw_config):
        records = tiny_batch_result.metrics.for_dagman(tiny_fdw_config.name)
        a_end = max(r.end_time for r in records if r.phase == "A")
        b = [r for r in records if r.phase == "B"][0]
        c_start = min(r.start_time for r in records if r.phase == "C")
        assert a_end <= b.start_time
        assert b.end_time <= c_start


class TestTraceToBursting:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory, tiny_batch_result, tiny_fdw_config):
        d = tmp_path_factory.mktemp("traces")
        batch_csv, jobs_csv = export_traces(tiny_batch_result, tiny_fdw_config.name, d)
        return read_traces(batch_csv, jobs_csv)

    def test_control_matches_osg_runtime(self, trace):
        control = BurstingSimulator(trace, policies=[]).run()
        assert control.runtime_s == pytest.approx(trace.runtime_s, abs=1.5)
        assert control.n_bursted == 0

    def test_bursting_never_slower_than_control(self, trace):
        control = BurstingSimulator(trace, policies=[]).run()
        bursty = BurstingSimulator(
            trace,
            policies=[
                LowThroughputPolicy(probe_s=5.0, threshold_jpm=8.0),
                QueueTimePolicy(max_queue_s=120.0),
            ],
        ).run()
        assert bursty.runtime_s <= control.runtime_s + 1.0
        assert (
            bursty.average_instant_throughput_jpm
            >= control.average_instant_throughput_jpm - 1e-9
        )


class TestLocalVsOsgProducts:
    def test_chunking_invariance_means_identical_catalogs(self):
        """The rupture catalog is identical however the work is split.

        This is the property that makes the FDW's parallelization
        correct: OSG A-phase jobs each compute a chunk with the same
        deterministic per-rupture RNG that the sequential runner uses.
        """
        params = FakeQuakesParameters(n_ruptures=8, n_stations=3, mesh=(8, 5), seed=13)
        sequential = FakeQuakes.from_parameters(params)
        seq_ruptures = sequential.phase_a_ruptures(0, 8)

        parallel = FakeQuakes.from_parameters(params)
        par_ruptures = []
        for start, count in chunk_bounds(8, 3):  # a different chunking
            par_ruptures.extend(parallel.phase_a_ruptures(start, count))

        assert len(seq_ruptures) == len(par_ruptures)
        for a, b in zip(seq_ruptures, par_ruptures):
            assert a.rupture_id == b.rupture_id
            np.testing.assert_array_equal(a.slip_m, b.slip_m)
            np.testing.assert_array_equal(a.onset_time_s, b.onset_time_s)

    def test_local_runner_executes_same_config_shape(self):
        config = FdwConfig(
            n_waveforms=4, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=2, name="eq"
        )
        local = LocalRunner().run(config)
        osg = run_fdw_batch(config, capacity=FixedCapacity(8), seed=0)
        # Same work decomposition: local produced all waveforms; the OSG
        # DAG contains exactly the planned jobs for the same config.
        assert local.n_waveform_sets == config.n_waveforms
        from repro.core.phases import plan_phases

        assert osg.metrics.dagmans["eq"].n_jobs == plan_phases(config).n_jobs


class TestPartitionedBatches:
    def test_partitions_jointly_cover_workload(self):
        config = FdwConfig(n_waveforms=48, n_stations=4, mesh=(8, 5), name="joint")
        parts = partition_config(config, 3)
        result = run_fdw_batch(parts, capacity=FixedCapacity(16), seed=4)
        total_c_nodes = sum(
            len(
                {
                    r.node_name
                    for r in result.metrics.for_dagman(p.name)
                    if r.phase == "C" and r.success
                }
            )
            for p in parts
        )
        # chunk_c=2: 48 waveforms -> 24 distinct C nodes across the
        # partitions (failed attempts retry as extra records).
        assert total_c_nodes == 24
        for p in parts:
            assert result.metrics.dagmans[p.name].end_time is not None


class TestPortalFlow:
    def test_fig7_end_to_end(self):
        from repro.osg.capacity import FixedCapacity
        from repro.vdc.portal import Portal

        portal = Portal(capacity=FixedCapacity(12))
        config = FdwConfig(n_waveforms=8, n_stations=3, mesh=(8, 5), name="fig7")
        run = portal.launch(config, user="researcher", seed=1)
        assert run.succeeded
        # An EEW modeller discovers the waveform product and pulls it to
        # their home site; the second pull is cache-fast.
        hits = portal.discover(kind="waveforms", ranges={"n_waveforms": (1, 100)})
        assert hits
        t1 = portal.retrieve(hits[0].product_id, "vdc-psu")
        t2 = portal.retrieve(hits[0].product_id, "vdc-psu")
        assert t2 < t1

"""Universal replay: pool runs, the partitioning study, and bursting."""

from __future__ import annotations

import json

import pytest

from repro.errors import PolicyError, TraceError, WfFormatError
from repro.bursting.policies import (
    LowThroughputPolicy,
    QueueTimePolicy,
    SubmissionGapPolicy,
)
from repro.bursting.simulator import BurstingResult
from repro.condor.jobs import JobSpec
from repro.osg.capacity import FixedCapacity
from repro.rng import RngFactory
from repro.wf import (
    CategoryCloudModel,
    TraceRuntimeModel,
    WfInstance,
    WfTask,
    dumps_instance,
    loads_instance,
    metrics_to_batch_trace,
    replay_bursting,
    replay_instance,
    replay_study,
)


@pytest.fixture(scope="module")
def generic_instance() -> WfInstance:
    """A non-FDW instance: 1 setup -> 12 simulate -> 1 reduce."""
    sims = tuple(f"sim_{i:02d}" for i in range(12))
    tasks = (
        WfTask(name="setup", category="setup", runtime_s=30.0, children=sims),
        *(
            WfTask(
                name=name,
                category="simulate",
                runtime_s=100.0 + 10.0 * i,
                parents=("setup",),
                children=("reduce",),
            )
            for i, name in enumerate(sims)
        ),
        WfTask(name="reduce", category="reduce", runtime_s=45.0, parents=sims),
    )
    return WfInstance(name="generic", tasks=tasks)


class TestTraceRuntimeModel:
    def test_returns_recorded_runtime(self):
        model = TraceRuntimeModel(runtimes={"a": 123.5})
        rng = RngFactory(0).generator("x")
        assert model.sample_seconds(JobSpec(name="a"), rng) == 123.5

    def test_unknown_task_falls_back_to_default(self):
        model = TraceRuntimeModel(runtimes={}, default_s=77.0)
        rng = RngFactory(0).generator("x")
        assert model.sample_seconds(JobSpec(name="zzz"), rng) == 77.0

    def test_clamps_to_simulator_floor(self):
        model = TraceRuntimeModel(runtimes={"a": 0.01})
        rng = RngFactory(0).generator("x")
        assert model.sample_seconds(JobSpec(name="a"), rng) == 1.0


class TestCategoryCloudModel:
    def test_duck_types_cloud_model(self):
        model = CategoryCloudModel(durations_s={"simulate": 120.0, "reduce": 30.0})
        assert model.is_burstable("simulate")
        assert not model.is_burstable("setup")
        assert model.duration_s("reduce") == 30.0
        assert model.rupture_seconds == 120.0
        assert model.waveform_seconds == 30.0
        assert model.cost_usd(600.0) > 0
        with pytest.raises(PolicyError, match="not burstable"):
            model.duration_s("setup")

    def test_validation(self):
        with pytest.raises(PolicyError, match="at least one"):
            CategoryCloudModel(durations_s={})
        with pytest.raises(PolicyError, match="positive"):
            CategoryCloudModel(durations_s={"x": 0.0})


class TestReplayInstance:
    def test_trace_replay_is_deterministic(self, generic_instance):
        a = replay_instance(generic_instance, seed=5)
        b = replay_instance(generic_instance, seed=5)
        assert a.makespan_s == b.makespan_s

    def test_trace_mode_never_fails_jobs(self, generic_instance):
        result = replay_instance(generic_instance, seed=1)
        assert result.runtime_mode == "trace"
        assert len(result.metrics.records) == generic_instance.n_tasks
        assert all(r.success for r in result.metrics.records)

    def test_user_logs_cover_every_dagman(self, generic_instance):
        result = replay_instance(generic_instance, n_dagmans=2, seed=0)
        assert set(result.user_logs) == set(result.dagman_names)
        assert result.n_dagmans == 2

    def test_bad_arguments_rejected(self, generic_instance):
        with pytest.raises(WfFormatError, match="n_dagmans"):
            replay_instance(generic_instance, n_dagmans=0)
        with pytest.raises(WfFormatError, match="runtime"):
            replay_instance(generic_instance, runtime="psychic")
        with pytest.raises(WfFormatError, match="stagger"):
            replay_instance(generic_instance, stagger_s=-1.0)

    def test_only_the_vector_engine_is_accepted(self, generic_instance):
        """The pool has one engine; the keyword survives only as "vector"."""
        for engine in ("reference", "turbo"):
            with pytest.raises(WfFormatError, match="engine must be 'vector'"):
                replay_instance(generic_instance, engine=engine)

    def test_study_covers_requested_counts(self, generic_instance):
        study = replay_study(
            generic_instance, counts=(1, 2), seed=0,
            capacity=FixedCapacity(slots=16),
        )
        assert set(study) == {1, 2}
        assert study[1].n_dagmans == 1
        assert study[2].n_dagmans == 2
        total = sum(
            s.n_jobs for s in study[2].metrics.dagmans.values()
        )
        assert total == generic_instance.n_tasks

    def test_study_rejects_empty_counts(self, generic_instance):
        with pytest.raises(WfFormatError, match="counts"):
            replay_study(generic_instance, counts=())


class TestBursting:
    def test_metrics_to_batch_trace(self, generic_instance):
        result = replay_instance(generic_instance, seed=2)
        trace = metrics_to_batch_trace(result.metrics, "generic")
        assert trace.n_jobs == generic_instance.n_tasks
        assert trace.runtime_s == result.metrics.dagmans["generic"].runtime_s
        with pytest.raises(TraceError, match="no DAGMan"):
            metrics_to_batch_trace(result.metrics, "nope")

    def test_policies_burst_generated_non_fdw_instance(self, generic_instance):
        """Acceptance: Policies 1-3 produce a BurstingResult from a
        non-FDW workload end to end."""
        result = replay_instance(generic_instance, seed=3)
        bursting = replay_bursting(
            result,
            policies=[
                LowThroughputPolicy(threshold_jpm=2.0),
                QueueTimePolicy(max_queue_s=60.0),
                SubmissionGapPolicy(),
            ],
        )
        burst = bursting["generic"]
        assert isinstance(burst, BurstingResult)
        assert burst.n_jobs == generic_instance.n_tasks
        assert set(burst.bursts_by_policy) == {"policy1", "policy2", "policy3"}
        assert burst.runtime_s > 0

    def test_default_cloud_derived_from_categories(self, generic_instance):
        result = replay_instance(generic_instance, seed=3)
        bursting = replay_bursting(result)
        assert isinstance(bursting["generic"], BurstingResult)

    def test_fdw_phases_use_paper_cloud_model(self):
        doc = {
            "name": "fdwish",
            "workflow": {
                "tasks": [
                    {"name": "a0", "category": "A", "runtimeInSeconds": 150,
                     "children": ["c0"]},
                    {"name": "c0", "category": "C", "runtimeInSeconds": 60,
                     "parents": ["a0"]},
                ]
            },
        }
        instance = loads_instance(json.dumps(doc))
        result = replay_instance(instance, seed=4)
        burst = replay_bursting(result, max_burst_fraction=0.5)["fdwish"]
        assert isinstance(burst, BurstingResult)

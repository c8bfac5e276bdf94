"""Bit-identical equivalence of the pool engine and the frozen reference.

The pool's engine (struct-of-arrays job table, batched negotiation,
coalesced completion events) must reproduce the reference engine's
output *exactly* — same job records, same DAGMan summaries, same
capacity traces, same rendered user logs, same rescue files — because
both consume the shared RNG streams in the same order. The reference
engine is the oracle in ``tests.oracles.pool_reference``, running on
its own frozen event loop. Every scenario here runs both engines and
diffs everything observable.
"""

import copy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rng_module
from repro.condor.dagfile import DagDescription, ScriptSpec
from repro.condor.dagman import DagmanOptions
from repro.condor.jobs import JobPayload, JobSpec
from repro.osg.capacity import FixedCapacity, MarkovModulatedCapacity
from repro.osg.pool import OSPoolConfig, OSPoolSimulator, resubmit_with_rescue
from repro.osg.runtimes import RuntimeModel
from repro.osg.transfer import TransferConfig
from repro.wf.replay import replay_instance, replay_study
from tests.oracles.pool_reference import ReferencePoolSimulator, on_reference_pool

FDW64 = Path(__file__).resolve().parents[2] / "examples" / "fdw64_wfformat.json"

ENGINES = ("reference", "vector")
POOLS = {"reference": ReferencePoolSimulator, "vector": OSPoolSimulator}


def on_engine(engine, entry, *args, **kwargs):
    """Call an entry point that builds its own pool, on ``engine``'s pool."""
    if engine == "reference":
        return on_reference_pool(entry, *args, **kwargs)
    return entry(*args, **kwargs)


def flat_dag(n_jobs=10, retries=2, name="e"):
    dag = DagDescription(name)
    for i in range(n_jobs):
        dag.add_job(
            f"{name}_{i}",
            JobSpec(
                name=f"{name}_{i}",
                payload=JobPayload(phase="A", n_items=1, n_stations=2),
            ),
            retries=retries,
        )
    return dag


def pool_outputs(pool, dags):
    for dag in dags:
        pool.submit_dagman(dag)
    metrics = pool.run()
    return metrics, {
        name: run.user_log.render() for name, run in pool.dagman_runs.items()
    }


def assert_same_outputs(make_pool, dags_factory):
    """Run the scenario under both engines and diff every observable."""
    results = {}
    for engine in ENGINES:
        results[engine] = pool_outputs(make_pool(engine), dags_factory())
    (ref_metrics, ref_logs), (vec_metrics, vec_logs) = (
        results["reference"],
        results["vector"],
    )
    assert ref_metrics.records == vec_metrics.records
    assert ref_metrics.dagmans == vec_metrics.dagmans
    assert ref_metrics.capacity_trace == vec_metrics.capacity_trace
    assert ref_logs == vec_logs
    return results


def quiet_config(**kwargs):
    kwargs.setdefault(
        "transfer", TransferConfig(setup_overhead_s=1.0, include_image=False)
    )
    kwargs.setdefault("success_prob", 1.0)
    return OSPoolConfig(**kwargs)


# -- basic scenarios -----------------------------------------------------------


def test_flat_dag_identical():
    assert_same_outputs(
        lambda engine: POOLS[engine](
            config=quiet_config(), capacity=FixedCapacity(4), seed=11
        ),
        lambda: [flat_dag(20)],
    )


def test_failures_and_retries_identical():
    assert_same_outputs(
        lambda engine: POOLS[engine](
            config=quiet_config(success_prob=0.6),
            capacity=FixedCapacity(3),
            seed=5,
        ),
        lambda: [flat_dag(15, retries=5)],
    )


def test_concurrent_dagmans_identical():
    assert_same_outputs(
        lambda engine: POOLS[engine](
            config=quiet_config(), capacity=FixedCapacity(5), seed=2
        ),
        lambda: [flat_dag(12, name="x"), flat_dag(12, name="y")],
    )


# -- fault scenarios -----------------------------------------------------------


def test_preemption_under_markov_capacity_identical():
    def make_pool(engine):
        return POOLS[engine](
            config=quiet_config(
                runtime=RuntimeModel(a_base_s=500.0, a_per_rupture_s=0.0, sigma_log=0.0)
            ),
            capacity=MarkovModulatedCapacity(
                levels=[8, 1], mean_dwell_s=[200.0, 200.0], jitter=0.0
            ),
            seed=8,
        )

    results = assert_same_outputs(make_pool, lambda: [flat_dag(10, retries=3)])
    metrics, _ = results["vector"]
    assert any(r.n_evictions > 0 for r in metrics.records)  # scenario bites


def test_terminal_failure_and_rescue_identical(tmp_path):
    dag_factory = lambda: [flat_dag(24, retries=1, name="k")]
    rescue_files = {}
    for engine in ENGINES:
        pool = POOLS[engine](
            config=quiet_config(success_prob=0.7),
            capacity=FixedCapacity(2),
            seed=7,
            rescue_dir=tmp_path / engine,
        )
        metrics, logs = pool_outputs(pool, dag_factory())
        assert pool.dagman_runs["k"].dead  # scenario bites
        rescue_files[engine] = pool.dagman_runs["k"].rescue_file
        if engine == "reference":
            ref = (metrics.records, metrics.dagmans, logs)
        else:
            assert (metrics.records, metrics.dagmans, logs) == ref
    ref_rescue, vec_rescue = rescue_files["reference"], rescue_files["vector"]
    assert ref_rescue is not None and vec_rescue is not None
    assert ref_rescue.read_text() == vec_rescue.read_text()
    # Resume from the (identical) rescue file under both engines.
    resumed = {}
    for engine in ENGINES:
        pool2, run2 = on_engine(
            engine,
            resubmit_with_rescue,
            dag_factory()[0],
            rescue_files[engine],
            name="k",
            config=quiet_config(),
            capacity=FixedCapacity(4),
            seed=9,
        )
        metrics2 = pool2.run()
        assert run2.engine.is_complete
        resumed[engine] = (metrics2.records, pool2.dagman_runs["k"].user_log.render())
    assert resumed["reference"] == resumed["vector"]


# -- WfFormat replay (the paper's workloads) -----------------------------------


@pytest.mark.parametrize("runtime", ["trace", "model"])
def test_fdw64_replay_identical(runtime):
    results = {
        engine: on_engine(engine, replay_instance, FDW64, seed=0, runtime=runtime)
        for engine in ENGINES
    }
    ref, vec = results["reference"], results["vector"]
    assert ref.metrics.records == vec.metrics.records
    assert ref.metrics.dagmans == vec.metrics.dagmans
    assert ref.metrics.capacity_trace == vec.metrics.capacity_trace
    assert ref.makespan_s == vec.makespan_s
    assert {n: log.render() for n, log in ref.user_logs.items()} == {
        n: log.render() for n, log in vec.user_logs.items()
    }
    assert len(vec.metrics.records) >= 37  # every fdw64 task completed


def test_fdw64_partition_study_identical():
    studies = {
        engine: on_engine(engine, replay_study, FDW64, counts=(1, 2, 4, 8), seed=0)
        for engine in ENGINES
    }
    for count in (1, 2, 4, 8):
        ref, vec = studies["reference"][count], studies["vector"][count]
        assert ref.metrics.records == vec.metrics.records
        assert ref.metrics.dagmans == vec.metrics.dagmans
        assert ref.makespan_s == vec.makespan_s
        assert {n: log.render() for n, log in ref.user_logs.items()} == {
            n: log.render() for n, log in vec.user_logs.items()
        }


# -- block-stream refills ----------------------------------------------------------


@pytest.mark.parametrize("block", [1, 3])
def test_fixed_scenarios_identical_across_block_refills(block, monkeypatch, tmp_path):
    """Rerun every fixed scenario with the product's transfer-site and
    failure streams refilling every ``block`` draws. At the product's
    block size none of these runs draws a whole block, so without this
    no refill would ever meet the oracle's scalar draws."""
    monkeypatch.setattr(rng_module, "BLOCK_SIZE", block)
    test_flat_dag_identical()
    test_failures_and_retries_identical()
    test_concurrent_dagmans_identical()
    test_preemption_under_markov_capacity_identical()
    test_terminal_failure_and_rescue_identical(tmp_path)
    for runtime in ("trace", "model"):
        test_fdw64_replay_identical(runtime)
    test_fdw64_partition_study_identical()


# -- random scenarios ------------------------------------------------------------


@st.composite
def scenarios(draw):
    """A random pool run: DAGs and pool model."""
    n_dagmans = draw(st.integers(1, 3))
    dags = []
    for d in range(n_dagmans):
        name = f"d{d}"
        dag = DagDescription(name)
        previous = []
        for layer in range(draw(st.integers(1, 3))):
            nodes = [f"{name}_{layer}_{i}" for i in range(draw(st.integers(1, 5)))]
            for node in nodes:
                dag.add_job(
                    node,
                    JobSpec(
                        name=node,
                        payload=JobPayload(phase="A", n_items=1, n_stations=2),
                    ),
                    retries=draw(st.integers(0, 2)),
                )
                for when in ("PRE", "POST"):
                    if draw(st.integers(0, 3)) == 0:  # on 1 node in 4
                        dag.set_script(node, when, ScriptSpec(
                            command=f"{when.lower()}.sh",
                            duration_s=draw(st.sampled_from([0.0, 5.0, 30.0])),
                            exit_code=draw(st.sampled_from([0] * 7 + [1])),
                        ))
            if previous:
                dag.add_edges(previous, nodes)
            previous = nodes
        dags.append(dag)
    if draw(st.booleans()):
        capacity = FixedCapacity(draw(st.integers(1, 6)))
    else:
        capacity = MarkovModulatedCapacity(
            levels=[draw(st.integers(3, 8)), draw(st.integers(1, 2))],
            mean_dwell_s=[draw(st.sampled_from([60.0, 300.0])), 120.0],
            jitter=draw(st.sampled_from([0.0, 0.1])),
        )
    config = quiet_config(
        runtime=RuntimeModel(
            a_base_s=draw(st.sampled_from([20.0, 120.0])),
            a_per_rupture_s=0.0,
            sigma_log=draw(st.sampled_from([0.0, 0.18])),  # 0: shared finishes
        ),
        success_prob=draw(st.sampled_from([1.0, 0.9, 0.6])),
    )
    return dict(
        dags=dags,
        capacity=capacity,
        config=config,
        options=DagmanOptions(max_idle=draw(st.sampled_from([0, 2, 5]))),
        seed=draw(st.integers(0, 2**16)),
    )


@given(scenario=scenarios())
@settings(max_examples=25, deadline=None)
def test_random_scenarios_identical(scenario):
    """Both engines agree on every observable of a random scenario:
    preemption on capacity drops, failed attempts, DAG retries, PRE and
    POST scripts, and the rescue files of DAGMans that die."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for engine in ENGINES:
            pool = POOLS[engine](
                config=scenario["config"],
                capacity=copy.deepcopy(scenario["capacity"]),
                seed=scenario["seed"],
                rescue_dir=Path(tmp) / engine,
            )
            for dag in scenario["dags"]:
                pool.submit_dagman(dag, scenario["options"])
            metrics = pool.run()
            runs = pool.dagman_runs
            outputs[engine] = (
                metrics.records,
                metrics.dagmans,
                metrics.capacity_trace,
                {name: run.user_log.render() for name, run in runs.items()},
                {
                    name: run.rescue_file and (run.rescue_file.name, run.rescue_file.read_text())
                    for name, run in runs.items()
                },
            )
    assert outputs["reference"] == outputs["vector"]

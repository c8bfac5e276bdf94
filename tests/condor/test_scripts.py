"""Tests for DAGMan PRE/POST scripts (dagfile + pool semantics)."""

import pytest

from repro.condor.dagfile import DagDescription, ScriptSpec
from repro.condor.jobs import JobPayload, JobSpec
from repro.errors import DagError
from repro.osg.capacity import FixedCapacity
from repro.osg.pool import OSPoolConfig, OSPoolSimulator
from repro.osg.transfer import TransferConfig


def single_node_dag(name="s", retries=0):
    dag = DagDescription(name)
    dag.add_job(
        "n0",
        JobSpec(name="n0", payload=JobPayload(phase="A", n_items=1, n_stations=2)),
        retries=retries,
    )
    return dag


def quiet_pool(success_prob=1.0, seed=0):
    return OSPoolSimulator(
        config=OSPoolConfig(
            transfer=TransferConfig(setup_overhead_s=1.0, include_image=False),
            success_prob=success_prob,
        ),
        capacity=FixedCapacity(2),
        seed=seed,
    )


class TestScriptSpec:
    def test_validation(self):
        with pytest.raises(DagError):
            ScriptSpec(command="")
        with pytest.raises(DagError):
            ScriptSpec(command="x", duration_s=-1.0)

    def test_succeeds(self):
        assert ScriptSpec(command="setup.sh").succeeds
        assert not ScriptSpec(command="bad.sh", exit_code=1).succeeds


class TestDagFile:
    def test_set_script(self):
        dag = single_node_dag()
        dag.set_script("n0", "PRE", ScriptSpec(command="mkdirs.sh"))
        dag.set_script("n0", "post", ScriptSpec(command="compress.sh out/"))
        node = dag.node("n0")
        assert node.pre_script.command == "mkdirs.sh"
        assert node.post_script.command == "compress.sh out/"

    def test_set_script_bad_kind(self):
        dag = single_node_dag()
        with pytest.raises(DagError):
            dag.set_script("n0", "DURING", ScriptSpec(command="x"))

    def test_roundtrip_through_dag_file(self, tmp_path):
        dag = single_node_dag()
        dag.set_script("n0", "PRE", ScriptSpec(command="mkdirs.sh --rigid"))
        dag.set_script("n0", "POST", ScriptSpec(command="compress.sh"))
        path = dag.write(tmp_path)
        back = DagDescription.read(path)
        node = back.node("n0")
        assert node.pre_script.command == "mkdirs.sh --rigid"
        assert node.post_script.command == "compress.sh"

    def test_bad_script_line(self, tmp_path):
        (tmp_path / "a.sub").write_text("executable = x\nqueue\n")
        path = tmp_path / "bad.dag"
        path.write_text("JOB a a.sub\nSCRIPT DURING a x\n")
        with pytest.raises(DagError):
            DagDescription.read(path)


class TestPoolSemantics:
    def test_pre_script_delays_submission(self):
        dag_fast = single_node_dag("fast")
        dag_slow = single_node_dag("slow")
        dag_slow.set_script("n0", "PRE", ScriptSpec(command="setup.sh", duration_s=500.0))
        pool_fast = quiet_pool()
        pool_fast.submit_dagman(dag_fast)
        t_fast = pool_fast.run().dagmans["fast"].runtime_s
        pool_slow = quiet_pool()
        pool_slow.submit_dagman(dag_slow)
        t_slow = pool_slow.run().dagmans["slow"].runtime_s
        assert t_slow >= t_fast + 400.0

    def test_failing_pre_fails_node_without_running_job(self):
        dag = single_node_dag()
        dag.set_script("n0", "PRE", ScriptSpec(command="bad.sh", exit_code=1))
        pool = quiet_pool()
        pool.submit_dagman(dag)
        metrics = pool.run()
        run = pool.dagman_runs["s"]
        assert run.dead
        assert metrics.records == []  # the job never executed
        assert len(run.user_log) == 0  # nor was it ever submitted

    def test_failing_pre_retried(self):
        dag = single_node_dag(retries=2)
        dag.set_script("n0", "PRE", ScriptSpec(command="flaky.sh", exit_code=1))
        pool = quiet_pool()
        pool.submit_dagman(dag)
        pool.run()
        # All three attempts fail in PRE; the node is terminally failed.
        assert pool.dagman_runs["s"].dead

    def test_successful_post_masks_job_failure(self):
        dag = single_node_dag()
        dag.set_script("n0", "POST", ScriptSpec(command="recover.sh", exit_code=0))
        pool = quiet_pool(success_prob=1e-9, seed=4)  # job will fail
        pool.submit_dagman(dag)
        metrics = pool.run()
        run = pool.dagman_runs["s"]
        assert run.engine.is_complete  # POST success masked the failure
        assert not metrics.records[0].success  # the job itself failed

    def test_failing_post_fails_successful_job(self):
        dag = single_node_dag()
        dag.set_script("n0", "POST", ScriptSpec(command="check.sh", exit_code=2))
        pool = quiet_pool()
        pool.submit_dagman(dag)
        metrics = pool.run()
        run = pool.dagman_runs["s"]
        assert run.dead
        assert metrics.records[0].success  # job succeeded; POST vetoed

    def test_post_duration_extends_dag_runtime(self):
        dag = single_node_dag()
        dag.set_script("n0", "POST", ScriptSpec(command="compress.sh", duration_s=300.0))
        pool = quiet_pool()
        pool.submit_dagman(dag)
        metrics = pool.run()
        run = pool.dagman_runs["s"]
        assert run.engine.is_complete
        job_end = metrics.records[0].end_time
        assert run.end_time >= job_end + 300.0

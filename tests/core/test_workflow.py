"""Tests for repro.core.workflow."""

import pytest

from repro.condor.dagfile import DagDescription
from repro.core.config import FdwConfig
from repro.core.phases import plan_phases
from repro.core.workflow import build_fdw_dag


@pytest.fixture(scope="module")
def dag():
    return build_fdw_dag(FdwConfig(n_waveforms=32, name="w"))


def test_structure_counts(dag):
    # 2 A jobs (chunk 16) + 1 B + 16 C jobs (chunk 2).
    assert len(dag) == 19


def test_a_jobs_are_roots_when_recycled(dag):
    roots = [n for n in dag.node_names if dag.n_parents(n) == 0]
    assert sorted(roots) == ["w_A_00000", "w_A_00001"]


def test_b_depends_on_all_a(dag):
    assert dag.parents("w_B") == ["w_A_00000", "w_A_00001"]


def test_c_depends_on_b(dag):
    for name in dag.node_names:
        if "_C_" in name:
            assert dag.parents(name) == ["w_B"]


def test_bootstrap_is_root_when_not_recycled():
    dag = build_fdw_dag(FdwConfig(n_waveforms=32, recycle_distances=False, name="w"))
    assert [n for n in dag.node_names if dag.n_parents(n) == 0] == ["w_dist"]
    assert dag.children("w_dist") == ["w_A_00000", "w_A_00001"]


def test_retries_propagated():
    dag = build_fdw_dag(FdwConfig(n_waveforms=32, retries=5, name="w"))
    assert dag.node("w_B").retries == 5
    assert dag.node("w_A_00000").retries == 5


def test_topological_order_is_phased(dag):
    order = dag.topological_order()
    b_pos = order.index("w_B")
    for name in order[:b_pos]:
        assert "_A_" in name
    for name in order[b_pos + 1 :]:
        assert "_C_" in name


def test_accepts_precomputed_plan():
    config = FdwConfig(n_waveforms=32, name="w")
    plan = plan_phases(config)
    dag = build_fdw_dag(config, plan=plan)
    assert len(dag) == plan.n_jobs


def test_dag_writes_and_reads_back(tmp_path):
    config = FdwConfig(n_waveforms=8, name="rt")
    dag = build_fdw_dag(config)
    dag_path = dag.write(tmp_path)
    back = DagDescription.read(dag_path)
    assert sorted(back.node_names) == sorted(dag.node_names)
    assert back.parents("rt_B") == dag.parents("rt_B")
    assert back.node("rt_C_00000").spec.payload.phase == "C"

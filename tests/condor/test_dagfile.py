"""Tests for repro.condor.dagfile."""

import sys

import pytest

from repro.condor.dagfile import DagDescription, DagNode
from repro.condor.jobs import JobPayload, JobSpec
from repro.errors import DagError


def spec(name, phase="A"):
    return JobSpec(name=name, payload=JobPayload(phase=phase))


def diamond():
    dag = DagDescription("diamond")
    for n in ("a", "b", "c", "d"):
        dag.add_job(n, spec(n))
    dag.add_edge("a", "b")
    dag.add_edge("a", "c")
    dag.add_edge("b", "d")
    dag.add_edge("c", "d")
    return dag


def test_basic_structure():
    dag = diamond()
    assert len(dag) == 4
    assert [n for n in dag.node_names if dag.n_parents(n) == 0] == ["a"]
    assert dag.parents("d") == ["b", "c"]
    assert dag.children("a") == ["b", "c"]
    assert "a" in dag


def test_topological_order():
    order = diamond().topological_order()
    assert order.index("a") < order.index("b") < order.index("d")
    assert order.index("a") < order.index("c") < order.index("d")


def test_duplicate_node_rejected():
    dag = DagDescription()
    dag.add_job("x", spec("x"))
    with pytest.raises(DagError):
        dag.add_job("x", spec("x"))


def test_unknown_edge_endpoint_rejected():
    dag = DagDescription()
    dag.add_job("x", spec("x"))
    with pytest.raises(DagError):
        dag.add_edge("x", "nope")


def test_self_edge_rejected():
    dag = DagDescription()
    dag.add_job("x", spec("x"))
    with pytest.raises(DagError):
        dag.add_edge("x", "x")


def test_cycle_detected_by_validate():
    dag = DagDescription()
    dag.add_job("a", spec("a"))
    dag.add_job("b", spec("b"))
    dag.add_edge("a", "b")
    dag.add_edge("b", "a")  # unchecked
    with pytest.raises(DagError):
        dag.validate()


def test_empty_dag_invalid():
    with pytest.raises(DagError):
        DagDescription().validate()


def test_add_edges_all_to_all():
    dag = DagDescription()
    for n in ("a1", "a2", "b", "c1", "c2"):
        dag.add_job(n, spec(n))
    dag.add_edges(["a1", "a2"], ["b"])
    dag.add_edges(["b"], ["c1", "c2"])
    assert dag.parents("b") == ["a1", "a2"]
    assert dag.children("b") == ["c1", "c2"]


def test_node_name_validation():
    with pytest.raises(DagError):
        DagNode(name="has space", spec=spec("x"))
    with pytest.raises(DagError):
        DagNode(name="x", spec=spec("x"), retries=-1)


#: The code points ``str.isspace`` accepts.
WHITESPACE = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]


def test_name_check_equals_isspace_scan():
    """The name check ``name.split() != [name]`` rejects exactly what the
    per-character scan it replaced rejected, on a name built around
    every code point and on the empty name."""
    names = [f"node{chr(cp)}1" for cp in range(sys.maxunicode + 1)] + [""]
    split_check = [name.split() != [name] for name in names]
    scan_check = [not name or any(map(str.isspace, name)) for name in names]
    assert split_check == scan_check
    assert sum(split_check) == len(WHITESPACE) + 1


def test_node_name_rejects_every_whitespace_character():
    for c in WHITESPACE:
        for name in (c, f"{c}a", f"a{c}", f"a{c}b"):
            with pytest.raises(DagError):
                DagNode(name=name, spec=spec("x"))
    with pytest.raises(DagError):
        DagNode(name="", spec=spec("x"))
    for name in ("a", "fdw.A-0001_x", "ü\u200b", "\x00"):
        assert DagNode(name=name, spec=spec("x")).name == name


def test_unknown_node_lookup():
    dag = diamond()
    with pytest.raises(DagError):
        dag.node("zzz")
    with pytest.raises(DagError):
        dag.parents("zzz")


def test_write_read_roundtrip(tmp_path):
    dag = diamond()
    dag._nodes["b"] = DagNode(name="b", spec=spec("b"), retries=2)
    dag_path = dag.write(tmp_path)
    back = DagDescription.read(dag_path)
    assert sorted(back.node_names) == sorted(dag.node_names)
    assert back.parents("d") == ["b", "c"]
    assert back.node("b").retries == 2
    assert back.node("a").spec.payload.phase == "A"


def test_read_missing_file(tmp_path):
    with pytest.raises(DagError):
        DagDescription.read(tmp_path / "nope.dag")


def test_read_bad_keyword(tmp_path):
    path = tmp_path / "bad.dag"
    path.write_text("FROB x y\n")
    with pytest.raises(DagError):
        DagDescription.read(path)


def test_read_parent_without_child(tmp_path):
    path = tmp_path / "bad.dag"
    (tmp_path / "a.sub").write_text("executable = x\nqueue\n")
    path.write_text("JOB a a.sub\nPARENT a\n")
    with pytest.raises(DagError):
        DagDescription.read(path)


@pytest.mark.parametrize("edge_line", ["PARENT a CHILD", "PARENT CHILD b"])
def test_read_parent_line_missing_a_side(tmp_path, edge_line):
    """An edge line without parents or without children is an error, not
    a silently dropped edge that would let ``b`` start before ``a``."""
    for n in ("a", "b"):
        (tmp_path / f"{n}.sub").write_text("executable = x\nqueue\n")
    path = tmp_path / "bad.dag"
    path.write_text(f"JOB a a.sub\nJOB b b.sub\n{edge_line}\n")
    with pytest.raises(DagError, match=rf"bad\.dag:3: PARENT line"):
        DagDescription.read(path)


def test_multi_parent_child_line(tmp_path):
    dag_path = tmp_path / "m.dag"
    for n in ("a", "b", "c"):
        (tmp_path / f"{n}.sub").write_text("executable = x\nqueue\n")
    dag_path.write_text("JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nPARENT a b CHILD c\n")
    dag = DagDescription.read(dag_path)
    assert dag.parents("c") == ["a", "b"]


def test_topological_order_disconnected_multi_root():
    # Two independent components: (a -> b) and (x -> y), plus a lone node.
    dag = DagDescription("forest")
    for n in ("a", "b", "x", "y", "lone"):
        dag.add_job(n, spec(n))
    dag.add_edge("a", "b")
    dag.add_edge("x", "y")
    order = dag.topological_order()
    assert sorted(order) == ["a", "b", "lone", "x", "y"]
    assert order.index("a") < order.index("b")
    assert order.index("x") < order.index("y")
    assert sorted(n for n in dag.node_names if dag.n_parents(n) == 0) == ["a", "lone", "x"]


def test_topological_order_on_cycle_raises_dag_error():
    dag = DagDescription("loop")
    for n in ("a", "b", "c"):
        dag.add_job(n, spec(n))
    dag.add_edge("a", "b")
    dag.add_edge("b", "c")
    dag.add_edge("c", "a")  # no per-edge check: the cycle lands silently
    with pytest.raises(DagError, match="cycle"):
        dag.topological_order()

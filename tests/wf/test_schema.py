"""WfFormat schema: validation, tolerant parsing, canonical dumping."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WfFormatError
from repro.wf import (
    SCHEMA_VERSION,
    WfFile,
    WfInstance,
    WfMachine,
    WfPayload,
    WfTask,
    dump_instance,
    dumps_instance,
    load_instance,
    loads_instance,
)

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "fdw64_wfformat.json"


def _task(name, parents=(), children=(), **kw):
    kw.setdefault("category", "generic")
    kw.setdefault("runtime_s", 10.0)
    return WfTask(name=name, parents=tuple(parents), children=tuple(children), **kw)


def _chain(*names):
    tasks = []
    for i, name in enumerate(names):
        tasks.append(
            _task(
                name,
                parents=(names[i - 1],) if i > 0 else (),
                children=(names[i + 1],) if i < len(names) - 1 else (),
            )
        )
    return tasks


class TestValidation:
    def test_minimal_instance(self):
        inst = WfInstance(name="w", tasks=tuple(_chain("a", "b")))
        assert inst.n_tasks == 2
        assert inst.n_edges() == 1
        assert inst.schema_version == SCHEMA_VERSION

    def test_empty_name_rejected(self):
        with pytest.raises(WfFormatError, match="name"):
            WfInstance(name="", tasks=tuple(_chain("a")))

    def test_no_tasks_rejected(self):
        with pytest.raises(WfFormatError, match="no tasks"):
            WfInstance(name="w", tasks=())

    def test_duplicate_task_names_rejected(self):
        with pytest.raises(WfFormatError, match="duplicate"):
            WfInstance(name="w", tasks=(_task("a"), _task("a")))

    def test_unknown_parent_rejected(self):
        with pytest.raises(WfFormatError, match="unknown task"):
            WfInstance(name="w", tasks=(_task("a", parents=("ghost",)),))

    def test_asymmetric_edge_rejected(self):
        tasks = (_task("a"), _task("b", parents=("a",)))  # a doesn't list b
        with pytest.raises(WfFormatError, match="asymmetric"):
            WfInstance(name="w", tasks=tasks)

    def test_cycle_rejected(self):
        tasks = (
            _task("a", parents=("b",), children=("b",)),
            _task("b", parents=("a",), children=("a",)),
        )
        with pytest.raises(WfFormatError, match="cycle"):
            WfInstance(name="w", tasks=tasks)

    def test_task_name_rejects_whitespace_and_empty(self):
        whitespace = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
        for c in whitespace:
            for name in (c, f"{c}a", f"a{c}", f"a{c}b"):
                with pytest.raises(WfFormatError, match="bad task name"):
                    _task(name)
        with pytest.raises(WfFormatError, match="bad task name"):
            _task("")
        for name in ("a", "fdw.A-0001_x", "ü\u200b", "\x00"):
            assert _task(name).name == name

    def test_negative_runtime_rejected(self):
        with pytest.raises(WfFormatError, match="negative runtime"):
            _task("a", runtime_s=-1.0)

    def test_bad_file_link_rejected(self):
        with pytest.raises(WfFormatError, match="link"):
            WfFile(name="f", size_bytes=1.0, link="sideways")

    def test_negative_file_size_rejected(self):
        with pytest.raises(WfFormatError, match="negative size"):
            WfFile(name="f", size_bytes=-1.0)

    def test_payload_validation(self):
        with pytest.raises(WfFormatError, match="phase"):
            WfPayload(phase="")
        with pytest.raises(WfFormatError, match=">= 1"):
            WfPayload(phase="A", n_items=0)

    def test_machine_validation(self):
        with pytest.raises(WfFormatError, match="cpu_cores"):
            WfMachine(name="m", cpu_cores=0)


class TestQueries:
    def test_levels_and_categories(self):
        # diamond: a -> (b, c) -> d
        tasks = (
            _task("a", children=("b", "c"), category="root"),
            _task("b", parents=("a",), children=("d",), category="mid"),
            _task("c", parents=("a",), children=("d",), category="mid"),
            _task("d", parents=("b", "c"), category="sink"),
        )
        inst = WfInstance(name="w", tasks=tasks)
        assert inst.levels() == {"a": 0, "b": 1, "c": 1, "d": 2}
        assert inst.categories() == ["mid", "root", "sink"]
        assert inst.task("d").parents == ("b", "c")
        with pytest.raises(WfFormatError, match="unknown task"):
            inst.task("nope")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_levels_are_networkx_longest_path_depths(self, data):
        """``levels()`` is each task's longest-path depth from a root, for
        random DAGs whose tasks and edges come in any order. WfChef-style
        generation types tasks by (level, category), so it must be exact."""
        import networkx as nx

        n = data.draw(st.integers(min_value=1, max_value=14))
        pairs = [(i, j) for j in range(1, n) for i in range(j) if data.draw(st.booleans())]
        edges = [(f"t{i}", f"t{j}") for i, j in data.draw(st.permutations(pairs))]
        names = [f"t{k}" for k in data.draw(st.permutations(range(n)))]
        tasks = tuple(
            _task(
                name,
                parents=[p for p, c in edges if c == name],
                children=[c for p, c in edges if p == name],
            )
            for name in names
        )
        graph = nx.DiGraph()
        graph.add_nodes_from(names)
        graph.add_edges_from(edges)
        # Every ancestor of v reaches v, so a longest path among them ends at v.
        expected = {
            v: nx.dag_longest_path_length(graph.subgraph(nx.ancestors(graph, v) | {v}))
            for v in names
        }
        assert WfInstance(name="w", tasks=tasks).levels() == expected

    def test_size_mb_is_exact(self):
        f = WfFile(name="f", size_bytes=13.25 * 1048576.0)
        assert f.size_mb == 13.25  # 2**20 is a power of two: exact


class TestJson:
    def test_dump_load_dump_byte_identical(self, tmp_path):
        inst = WfInstance(
            name="w",
            description="test",
            tasks=tuple(_chain("a", "b", "c")),
            makespan_s=123.5,
            machines=(WfMachine(name="node", cpu_cores=4),),
            attributes={"maxIdle": 500},
        )
        text = dumps_instance(inst)
        again = dumps_instance(loads_instance(text))
        assert text == again
        path = dump_instance(inst, tmp_path / "w.json")
        assert load_instance(path) == inst

    def test_loads_tolerates_unknown_keys(self):
        doc = {
            "name": "w",
            "totallyUnknownKey": {"nested": 1},
            "workflow": {
                "tasks": [
                    {"name": "a", "runtimeInSeconds": 5, "extra": "ignored"},
                ]
            },
        }
        inst = loads_instance(json.dumps(doc))
        assert inst.task("a").runtime_s == 5.0
        # category falls back to the task name when absent
        assert inst.task("a").category == "a"

    def test_loads_legacy_keys(self):
        doc = {
            "name": "w",
            "workflow": {
                "makespan": 60,
                "machines": [{"nodeName": "n", "cpu": {"coreCount": 8}}],
                "tasks": [
                    {
                        "name": "a",
                        "runtime": 5,
                        "files": [{"name": "f", "size": 2097152}],
                    }
                ],
            },
        }
        inst = loads_instance(json.dumps(doc))
        assert inst.makespan_s == 60.0
        assert inst.machines[0].cpu_cores == 8
        assert inst.task("a").files[0].size_mb == 2.0

    def test_loads_symmetrizes_one_sided_edges(self):
        doc = {
            "name": "w",
            "workflow": {
                "tasks": [
                    {"name": "a", "runtimeInSeconds": 1},
                    {"name": "b", "runtimeInSeconds": 1, "parents": ["a"]},
                ]
            },
        }
        inst = loads_instance(json.dumps(doc))
        assert inst.task("a").children == ("b",)
        assert inst.n_edges() == 1

    def test_loads_rejects_bad_documents(self):
        with pytest.raises(WfFormatError, match="invalid JSON"):
            loads_instance("{not json")
        with pytest.raises(WfFormatError, match="workflow"):
            loads_instance('{"name": "w"}')
        with pytest.raises(WfFormatError, match="tasks"):
            loads_instance('{"name": "w", "workflow": {}}')
        with pytest.raises(WfFormatError, match="runtimeInSeconds"):
            loads_instance(
                '{"name": "w", "workflow": {"tasks": [{"name": "a"}]}}'
            )
        with pytest.raises(WfFormatError, match="expected a number"):
            loads_instance(
                '{"name": "w", "workflow": {"tasks": '
                '[{"name": "a", "runtimeInSeconds": "fast"}]}}'
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("runtimeInSeconds", float("nan")),
            ("runtimeInSeconds", float("inf")),
            ("sizeInBytes", float("nan")),
        ],
        ids=["nan-runtime", "inf-runtime", "nan-size"],
    )
    def test_loads_rejects_non_finite_numbers(self, key, value):
        """Regression: json.loads parses the NaN/Infinity literals, and the
        bundled fdw64 instance used to load with them. A NaN runtime then
        replayed as a 1 s task, an infinite one ran into the 30-day guard,
        and a NaN file size broke the pool's transfer times."""
        doc = json.loads(EXAMPLE.read_text())
        task = doc["workflow"]["tasks"][0]
        if key == "sizeInBytes":
            task["files"][0][key] = value
        else:
            task[key] = value
        text = json.dumps(doc)
        assert ("NaN" if value != value else "Infinity") in text
        with pytest.raises(WfFormatError, match=f"{key}: expected a finite number"):
            loads_instance(text)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(WfFormatError, match="not found"):
            load_instance(tmp_path / "nope.json")

    def test_integral_sizes_dump_as_ints(self):
        inst = WfInstance(
            name="w",
            tasks=(
                _task("a", files=(WfFile(name="f", size_bytes=1048576.0),)),
            ),
        )
        doc = json.loads(dumps_instance(inst))
        assert doc["workflow"]["tasks"][0]["files"][0]["sizeInBytes"] == 1048576
        assert isinstance(doc["workflow"]["tasks"][0]["files"][0]["sizeInBytes"], int)

    def test_extensions_omitted_when_empty(self):
        inst = WfInstance(name="w", tasks=tuple(_chain("a")))
        doc = json.loads(dumps_instance(inst))
        assert "attributes" not in doc
        task = doc["workflow"]["tasks"][0]
        assert "retries" not in task
        assert "payload" not in task
        assert "command" not in task

"""The one-pass instance pipeline against its frozen two-pass oracle.

``generate_instance``, ``import_instance`` and ``WfInstance`` validation
must reproduce :mod:`tests.oracles.wf_pipeline` exactly: the same
document bytes, the same DAG (node order, node objects, parent and
child insertion order), the same runtime and file manifests in the same
order, and on a malformed instance the same error message.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WfFormatError
from repro.wf import (
    WfFile,
    WfInstance,
    WfPayload,
    WfTask,
    dumps_instance,
    generate_instance,
    import_instance,
)
from tests.oracles import wf_pipeline as oracle

#: Categories that sanitize to distinct slugs (the oracle names clashing
#: ones alike), FDW phases with and without payloads among them.
CATEGORIES = ("A", "B", "C", "dist", "prep", "x.y", "post_proc")
_SIZES = st.sampled_from([0.0, 1048576.0, 419430.4, 44236800.0, 1620000.0, 7.0])


@st.composite
def _task_attrs(draw, category: str) -> dict:
    payload = None
    if category in ("A", "B", "C", "dist") and draw(st.booleans()):
        payload = WfPayload(
            phase=category,
            n_items=draw(st.integers(1, 16)),
            n_stations=draw(st.integers(1, 121)),
        )
    return {
        "runtime_s": draw(st.floats(0.0, 1e4, allow_nan=False)),
        "cores": draw(st.integers(1, 8)),
        "memory_mb": draw(st.one_of(st.none(), st.integers(1, 16384))),
        "retries": draw(st.integers(0, 3)),
        "program": draw(st.one_of(st.none(), st.just("run.sh"))),
        "arguments": draw(st.sampled_from([(), ("--phase", category)])),
        "payload": payload,
    }


def _files(draw, name: str, shared: list[WfFile]) -> tuple[WfFile, ...]:
    files = draw(st.lists(st.sampled_from(shared), unique_by=lambda f: f.name, max_size=3))
    n_unique = draw(st.integers(0, 2))
    files += [
        WfFile(
            name=f"{name}_u{j}",
            size_bytes=draw(_SIZES),
            link=draw(st.sampled_from(["input", "output"])),
        )
        for j in range(n_unique)
    ]
    return tuple(draw(st.permutations(files)))


@st.composite
def sources(draw) -> WfInstance:
    """Random source patterns: up to four levels of one to three
    categories, all-to-all, sparse or no wiring between each pair of
    types, shared and unique files, singleton types, and now and then a
    pure chain."""
    shared = [WfFile(name=f"shared{i}.npy", size_bytes=draw(_SIZES)) for i in range(3)]
    chain = draw(st.integers(0, 4)) == 0
    levels: list[list[tuple[str, str]]] = []
    for level in range(draw(st.integers(1, 4))):
        if chain:
            cats, sizes = [draw(st.sampled_from(CATEGORIES))], [1]
        else:
            cats = draw(
                st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=3, unique=True)
            )
            sizes = [draw(st.integers(1, 4)) for _ in cats]
        levels.append([
            (f"t{level}{cat}{i}".replace(".", ""), cat)
            for cat, n in zip(cats, sizes)
            for i in range(n)
        ])
    parents: dict[str, list[str]] = {name: [] for lvl in levels for name, _ in lvl}
    for level in range(1, len(levels)):
        below = levels[level - 1] if chain else [t for lvl in levels[:level] for t in lvl]
        for cat in dict.fromkeys(c for _, c in levels[level]):
            children = [n for n, c in levels[level] if c == cat]
            for pcat in dict.fromkeys(c for _, c in below):
                pgroup = [n for n, c in below if c == pcat]
                mode = "all" if chain else draw(st.sampled_from(["all", "some", "none"]))
                for child in children:
                    if mode == "all":
                        parents[child] += pgroup
                    elif mode == "some":
                        parents[child] += draw(st.lists(st.sampled_from(pgroup), unique=True))
    children_of: dict[str, list[str]] = {name: [] for name in parents}
    for child, ps in parents.items():
        for p in ps:
            children_of[p].append(child)
    tasks = [
        WfTask(
            name=name,
            category=cat,
            parents=tuple(draw(st.permutations(parents[name]))),
            children=tuple(draw(st.permutations(children_of[name]))),
            files=_files(draw, name, shared),
            **draw(_task_attrs(cat)),
        )
        for lvl in levels
        for name, cat in lvl
    ]
    return WfInstance(name="src", tasks=tuple(draw(st.permutations(tasks))))


def _n_types(source: WfInstance) -> int:
    levels = source.levels()
    return len({(levels[t.name], t.category) for t in source.tasks})


def _assert_same_import(new, old) -> None:
    assert new.dag.node_names == old.dag.node_names
    for name in old.dag.node_names:
        node, expected = new.dag.node(name), old.dag.node(name)
        assert node == expected
        assert list(node.spec.input_files.items()) == list(expected.spec.input_files.items())
        assert list(new.dag._parents[name]) == list(old.dag._parents[name])
        assert list(new.dag._children.get(name, ())) == list(old.dag._children.get(name, ()))
    assert list(new.runtimes.items()) == list(old.runtimes.items())
    assert list(new.files_mb.items()) == list(old.files_mb.items())


@given(source=sources(), extra=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_generate_and_import_match_the_oracle(source, extra, seed):
    n = _n_types(source) + extra
    new = generate_instance(source, n, seed)
    old = oracle.generate_instance(source, n, seed)
    assert dumps_instance(new) == dumps_instance(old)
    assert new == old
    _assert_same_import(import_instance(new), oracle.import_instance(old))
    _assert_same_import(import_instance(source), oracle.import_instance(source))


# -- malformed instances ------------------------------------------------------


def _edges(tasks: list[WfTask]) -> list[tuple[int, int]]:
    index = {t.name: i for i, t in enumerate(tasks)}
    return [(index[p], i) for i, t in enumerate(tasks) for p in t.parents if p in index]


def _mutate(draw, tasks: list[WfTask], kind: str) -> None:
    """Apply one defect of ``kind`` to ``tasks`` in place."""
    i = draw(st.integers(0, len(tasks) - 1))
    t = tasks[i]
    edges = _edges(tasks)
    if kind == "duplicate":
        tasks.insert(draw(st.integers(0, len(tasks))), t)
    elif kind == "unknown-parent":
        tasks[i] = dataclasses.replace(t, parents=(*t.parents, "ghost"))
    elif kind == "unknown-child":
        tasks[i] = dataclasses.replace(t, children=("ghost", *t.children))
    elif kind in ("one-sided-parent", "one-sided-child", "cycle", "repeated-parent") and edges:
        p, c = draw(st.sampled_from(edges))
        parent, child = tasks[p], tasks[c]
        if kind == "one-sided-parent":  # the child lists it, the parent does not
            tasks[p] = dataclasses.replace(
                parent, children=tuple(n for n in parent.children if n != child.name)
            )
        elif kind == "one-sided-child":
            tasks[c] = dataclasses.replace(
                child, parents=tuple(n for n in child.parents if n != parent.name)
            )
        elif kind == "cycle":  # close the edge into a two-task loop
            tasks[c] = dataclasses.replace(child, children=(*child.children, parent.name))
            tasks[p] = dataclasses.replace(tasks[p], parents=(*tasks[p].parents, child.name))
        else:
            tasks[c] = dataclasses.replace(child, parents=(*child.parents, parent.name))
    elif kind == "cycle":  # no edge to close: a self-loop
        tasks[i] = dataclasses.replace(t, parents=(*t.parents, t.name), children=(t.name,))


_DEFECTS = (
    "duplicate",
    "unknown-parent",
    "unknown-child",
    "one-sided-parent",
    "one-sided-child",
    "cycle",
    "repeated-parent",
)


def _outcome(validate) -> str | None:
    try:
        validate()
    except WfFormatError as exc:
        return str(exc)
    return None


@given(source=sources(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_malformed_instances_raise_the_oracle_message(source, data):
    tasks = list(source.tasks)
    for kind in data.draw(st.lists(st.sampled_from(_DEFECTS), min_size=1, max_size=3)):
        _mutate(data.draw, tasks, kind)
    expected = _outcome(lambda: oracle.validate_instance("w", tasks))
    assert _outcome(lambda: WfInstance(name="w", tasks=tuple(tasks))) == expected


@pytest.mark.parametrize("kind", [k for k in _DEFECTS if k != "repeated-parent"])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_every_defect_is_rejected_with_the_oracle_message(kind, data):
    source = data.draw(sources().filter(lambda s: s.n_edges() > 0))
    tasks = list(source.tasks)
    _mutate(data.draw, tasks, kind)
    expected = _outcome(lambda: oracle.validate_instance("w", tasks))
    assert expected is not None
    assert _outcome(lambda: WfInstance(name="w", tasks=tuple(tasks))) == expected

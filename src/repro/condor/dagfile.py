"""DAG descriptions and ``.dag`` files.

A :class:`DagDescription` is the static workflow structure DAGMan
executes: named nodes, each bound to a :class:`~repro.condor.jobs.JobSpec`,
plus PARENT/CHILD edges. Each node's parents and children are kept in
insertion-ordered dicts, and one Kahn pass (:func:`kahn_order`, shared
with :class:`~repro.wf.schema.WfInstance`) gives both the topological
order and the cycle check. The structure holds no reference back to
itself, so a dropped DAG is freed by reference counting alone.

``.dag`` file round-tripping follows HTCondor's syntax::

    JOB A_0000 a_0000.sub
    JOB B b.sub
    PARENT A_0000 CHILD B
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.errors import DagError
from repro.condor.jobs import JobSpec
from repro.condor.submit import SubmitDescription

__all__ = ["DagNode", "DagDescription", "ScriptSpec", "kahn_order"]


def kahn_order(
    parents: Mapping[str, Collection[str]], children: Mapping[str, Iterable[str]]
) -> list[str]:
    """Kahn's algorithm, first-in first-out.

    ``parents`` and ``children`` map every node to its direct parents
    and children. The roots come in ``parents``' key order, then every
    node as soon as its last parent is placed, children in the order
    ``children`` lists them: the generation-by-generation order of
    ``networkx``'s ``topological_sort``, which rescue files were written
    in. A node on or below a cycle is never placed, so the order is
    shorter than ``parents`` exactly when the graph is cyclic.
    """
    in_degree = {n: len(p) for n, p in parents.items() if p}
    order = [n for n, p in parents.items() if not p]
    for name in order:  # grows while it is walked
        for child in children[name]:
            left = in_degree[child] - 1
            in_degree[child] = left
            if not left:
                order.append(child)
    return order


@dataclass(frozen=True)
class ScriptSpec:
    """A DAGMan PRE or POST script.

    In real DAGMan these are arbitrary executables run on the submit
    host; in the simulator a script is its command line, a duration,
    and a deterministic exit code. The FDW uses them for the per-phase
    folder setup and output-compression steps (paper §3.0.1: each phase
    script "establish[es] the required, 'rigid' MudPy folder structure
    ... and compress[es] the output").
    """

    command: str
    duration_s: float = 5.0
    exit_code: int = 0

    def __post_init__(self) -> None:
        if not self.command:
            raise DagError("script command must be non-empty")
        if self.duration_s < 0:
            raise DagError(f"script duration must be >= 0, got {self.duration_s}")

    @property
    def succeeds(self) -> bool:
        """True when the script exits 0."""
        return self.exit_code == 0


@dataclass(frozen=True)
class DagNode:
    """One DAG node: a name, the job it submits, optional PRE/POST
    scripts and a retry budget.

    Semantics match DAGMan: the PRE script runs before job submission
    and its failure fails the node without running the job; the POST
    script runs after the job terminates and its exit code *becomes*
    the node's result (a successful POST masks a failed job, a failing
    POST fails a successful job).
    """

    name: str
    spec: JobSpec
    retries: int = 0
    pre_script: ScriptSpec | None = None
    post_script: ScriptSpec | None = None

    def __post_init__(self) -> None:
        # Non-empty and free of whitespace (str.split() splits on
        # exactly the characters str.isspace() accepts).
        if self.name.split() != [self.name]:
            raise DagError(f"bad node name {self.name!r}")
        if self.retries < 0:
            raise DagError(f"{self.name}: retries must be >= 0")


class DagDescription:
    """A named DAG of job nodes."""

    def __init__(self, name: str = "dag") -> None:
        self.name = name
        self._nodes: dict[str, DagNode] = {}
        # Node -> parents / children, as insertion-ordered key sets.
        self._parents: dict[str, dict[str, None]] = {}
        self._children: dict[str, dict[str, None]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: DagNode) -> None:
        """Add a node; duplicate names are an error."""
        if node.name in self._nodes:
            raise DagError(f"duplicate DAG node {node.name!r}")
        self._nodes[node.name] = node
        self._parents[node.name] = {}
        self._children[node.name] = {}

    def add_job(self, name: str, spec: JobSpec, retries: int = 0) -> DagNode:
        """Convenience: build and add a node in one step."""
        node = DagNode(name=name, spec=spec, retries=retries)
        self.add_node(node)
        return node

    def set_script(self, name: str, when: str, script: ScriptSpec) -> DagNode:
        """Attach a PRE or POST script to an existing node.

        Returns the updated (replaced) node. ``when`` is ``"PRE"`` or
        ``"POST"``.
        """
        node = self.node(name)
        when = when.upper()
        if when == "PRE":
            updated = DagNode(
                name=node.name,
                spec=node.spec,
                retries=node.retries,
                pre_script=script,
                post_script=node.post_script,
            )
        elif when == "POST":
            updated = DagNode(
                name=node.name,
                spec=node.spec,
                retries=node.retries,
                pre_script=node.pre_script,
                post_script=script,
            )
        else:
            raise DagError(f"script kind must be PRE or POST, got {when!r}")
        self._nodes[name] = updated
        return updated

    def add_edge(self, parent: str, child: str) -> None:
        """Declare ``parent`` must complete before ``child`` starts.

        Cycles are not checked per edge: :meth:`validate` checks the
        whole DAG once, and every :class:`~repro.condor.dagman.DagmanEngine`
        validates the DAG it runs.
        """
        children = self._children.get(parent)
        parents = self._parents.get(child)
        if children is None or parents is None:
            unknown = parent if children is None else child
            raise DagError(f"unknown DAG node {unknown!r}")
        if parent == child:
            raise DagError(f"self-edge on {parent!r}")
        children[child] = None
        parents[parent] = None

    def add_edges(self, parents: list[str], children: list[str]) -> None:
        """All-to-all PARENT..CHILD edges (HTCondor's multi-name form)."""
        for p in parents:
            for c in children:
                self.add_edge(p, c)

    # -- queries -------------------------------------------------------------

    @property
    def node_names(self) -> list[str]:
        """Node names in insertion order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def node(self, name: str) -> DagNode:
        """Node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise DagError(f"unknown DAG node {name!r}") from None

    def parents(self, name: str) -> list[str]:
        """Direct parents of a node."""
        self.node(name)
        return sorted(self._parents[name])

    def n_parents(self, name: str) -> int:
        """Number of direct parents of a node."""
        try:
            return len(self._parents[name])
        except KeyError:
            raise DagError(f"unknown DAG node {name!r}") from None

    def children(self, name: str) -> list[str]:
        """Direct children of a node."""
        self.node(name)
        return sorted(self._children[name])

    def topological_order(self) -> list[str]:
        """A topological ordering of node names (see :func:`kahn_order`).

        Raises
        ------
        DagError
            If the DAG contains a cycle.
        """
        order = kahn_order(self._parents, self._children)
        if len(order) < len(self._nodes):
            raise DagError(
                f"DAG {self.name!r} contains a cycle; no topological order exists"
            )
        return order

    def validate(self) -> None:
        """Raise :class:`DagError` if the DAG is empty or cyclic."""
        if not self._nodes:
            raise DagError(f"DAG {self.name!r} has no nodes")
        self.topological_order()

    # -- .dag file round-trip ---------------------------------------------------

    def write(self, directory: str | Path) -> Path:
        """Write ``<name>.dag`` plus one submit file per node."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        lines = [f"# DAGMan file for {self.name}"]
        for node in self._nodes.values():
            sub = SubmitDescription.from_job_spec(node.spec)
            sub_path = directory / f"{node.name}.sub"
            sub.write(sub_path)
            lines.append(f"JOB {node.name} {sub_path.name}")
            if node.retries:
                lines.append(f"RETRY {node.name} {node.retries}")
            for when, script in (("PRE", node.pre_script), ("POST", node.post_script)):
                if script is not None:
                    lines.append(f"SCRIPT {when} {node.name} {script.command}")
        for parent, children in self._children.items():
            for child in children:
                lines.append(f"PARENT {parent} CHILD {child}")
        dag_path = directory / f"{self.name}.dag"
        dag_path.write_text("\n".join(lines) + "\n")
        return dag_path

    @classmethod
    def read(cls, dag_path: str | Path) -> "DagDescription":
        """Parse a ``.dag`` file written by :meth:`write`."""
        dag_path = Path(dag_path)
        if not dag_path.exists():
            raise DagError(f"DAG file not found: {dag_path}")
        dag = cls(name=dag_path.stem)
        retries: dict[str, int] = {}
        edges: list[tuple[list[str], list[str]]] = []
        scripts: list[tuple[str, str, str]] = []
        for lineno, raw in enumerate(dag_path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            keyword = parts[0].upper()
            if keyword == "JOB":
                if len(parts) != 3:
                    raise DagError(f"{dag_path}:{lineno}: bad JOB line {raw!r}")
                name, sub_file = parts[1], parts[2]
                sub = SubmitDescription.read(dag_path.parent / sub_file)
                dag.add_job(name, sub.to_job_spec(name))
            elif keyword == "RETRY":
                if len(parts) != 3 or not parts[2].isdigit():
                    raise DagError(f"{dag_path}:{lineno}: bad RETRY line {raw!r}")
                retries[parts[1]] = int(parts[2])
            elif keyword == "SCRIPT":
                if len(parts) < 4 or parts[1].upper() not in ("PRE", "POST"):
                    raise DagError(f"{dag_path}:{lineno}: bad SCRIPT line {raw!r}")
                scripts.append((parts[2], parts[1].upper(), " ".join(parts[3:])))
            elif keyword == "PARENT":
                upper = [p.upper() for p in parts]
                if "CHILD" not in upper:
                    raise DagError(f"{dag_path}:{lineno}: PARENT without CHILD")
                split = upper.index("CHILD")
                parents, children = parts[1:split], parts[split + 1 :]
                if not parents or not children:
                    raise DagError(
                        f"{dag_path}:{lineno}: PARENT line needs a parent and "
                        f"a child, got {raw!r}"
                    )
                edges.append((parents, children))
            else:
                raise DagError(f"{dag_path}:{lineno}: unknown keyword {keyword!r}")
        for parents, children in edges:
            dag.add_edges(parents, children)
        for name, count in retries.items():
            node = dag.node(name)
            dag._nodes[name] = DagNode(
                name=node.name,
                spec=node.spec,
                retries=count,
                pre_script=node.pre_script,
                post_script=node.post_script,
            )
        for name, when, command in scripts:
            dag.set_script(name, when, ScriptSpec(command=command))
        dag.validate()
        return dag

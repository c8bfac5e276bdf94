"""Oracle: the WfChef generator, the WfFormat importer and the instance
validation as they shipped before the one-pass rewrite.

``generate_instance`` draws each template index as its own scalar,
builds every generated task as a dict and materializes it into a
:class:`~repro.wf.schema.WfTask` afterwards; ``import_instance`` walks
each task's files twice and builds one payload per task;
``validate_instance`` is ``WfInstance.__post_init__`` with a frozenset
of parents and of children per task. They are frozen here so the
equivalence properties can hold the product pipeline to them byte for
byte and message for message. The bodies are unchanged except that
the importer filters inputs and converts sizes to MB inline
(``WfTask.input_files`` and ``WfFile.size_mb`` left ``src/`` with it),
and they build the product's record types, which the rewrite kept. The
importer returns its two manifests beside the DAG in an
:class:`ImportResult`: ``ImportedWorkflow`` now derives them from the
instance when read. The type apportionment (``_target_counts``) and the
category sanitizer (``_sanitize``) are imported: the rewrite left them
as they were.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.condor.dagfile import DagDescription, DagNode, kahn_order
from repro.condor.jobs import JobPayload, JobSpec
from repro.errors import WfFormatError
from repro.rng import RngFactory
from repro.wf.generate import _sanitize, _target_counts
from repro.wf.schema import WfFile, WfInstance, WfTask

__all__ = ["ImportResult", "generate_instance", "import_instance", "validate_instance"]


def validate_instance(
    name: str, tasks: Sequence[WfTask], makespan_s: float | None = None
) -> None:
    """``WfInstance.__post_init__`` over the given fields."""
    if not name:
        raise WfFormatError("instance name must be non-empty")
    if not tasks:
        raise WfFormatError(f"instance {name!r} has no tasks")
    if makespan_s is not None and makespan_s < 0:
        raise WfFormatError(f"instance {name!r}: negative makespan")
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise WfFormatError(f"instance {name!r}: duplicate tasks {dupes}")
    by_name = {t.name: t for t in tasks}
    parent_sets = {t.name: frozenset(t.parents) for t in tasks}
    child_sets = {t.name: frozenset(t.children) for t in tasks}
    for task in tasks:
        for ref in (*task.parents, *task.children):
            if ref not in by_name:
                raise WfFormatError(
                    f"task {task.name!r} references unknown task {ref!r}"
                )
        for parent in task.parents:
            if task.name not in child_sets[parent]:
                raise WfFormatError(
                    f"asymmetric edge: {task.name!r} lists parent {parent!r} "
                    f"but {parent!r} does not list it as a child"
                )
        for child in task.children:
            if task.name not in parent_sets[child]:
                raise WfFormatError(
                    f"asymmetric edge: {task.name!r} lists child {child!r} "
                    f"but {child!r} does not list it as a parent"
                )
    order = kahn_order(
        {t.name: t.parents for t in tasks}, {t.name: t.children for t in tasks}
    )
    if len(order) < len(tasks):
        stuck = sorted(by_name.keys() - set(order))
        raise WfFormatError(
            f"instance {name!r} contains a cycle (involving {stuck[:5]})"
        )


def generate_instance(
    source: WfInstance, n_tasks: int, seed: int, *, name: str | None = None
) -> WfInstance:
    """The two-pass WfChef scale-up."""
    if n_tasks < 1:
        raise WfFormatError(f"n_tasks must be >= 1, got {n_tasks}")
    rng = RngFactory(seed).generator("wf", "generate")
    levels = source.levels()
    type_of = {t.name: (levels[t.name], t.category) for t in source.tasks}
    groups: dict[tuple[int, str], list[WfTask]] = {}
    for task in source.tasks:
        groups.setdefault(type_of[task.name], []).append(task)
    ordered_types = sorted(groups)
    counts = {t: len(g) for t, g in groups.items()}
    targets = _target_counts(ordered_types, counts, n_tasks)

    usage: dict[str, int] = {}
    for task in source.tasks:
        for f in task.files:
            usage[f.name] = usage.get(f.name, 0) + 1
    shared = {fname for fname, n in usage.items() if n > 1}

    gen_name = name or f"{source.name}_gen{n_tasks}"
    gen_tasks: dict[tuple[int, str], list[dict]] = {}
    for wtype in ordered_types:
        level, category = wtype
        group = groups[wtype]
        slug = _sanitize(category)
        tasks_of_type: list[dict] = []
        for i in range(targets[wtype]):
            template = group[int(rng.integers(len(group)))]
            task_name = f"{gen_name}_{slug}_L{level}_{i:05d}"
            files = [f for f in template.files if f.name in shared]
            unique = [f for f in template.files if f.name not in shared]
            files += [
                WfFile(
                    name=f"{task_name}_in{j}", size_bytes=f.size_bytes, link=f.link
                )
                for j, f in enumerate(unique)
            ]
            tasks_of_type.append(
                {
                    "name": task_name,
                    "category": category,
                    "runtime_s": template.runtime_s,
                    "files": tuple(files),
                    "cores": template.cores,
                    "memory_mb": template.memory_mb,
                    "retries": template.retries,
                    "program": template.program,
                    "payload": template.payload,
                    "parents": set(),
                }
            )
        gen_tasks[wtype] = tasks_of_type

    for wtype in ordered_types:
        group = groups[wtype]
        parent_types = sorted(
            {type_of[p] for task in group for p in task.parents}
        )
        children = gen_tasks[wtype]
        for ptype in parent_types:
            pgroup = groups[ptype]
            in_degrees = [
                sum(1 for p in task.parents if type_of[p] == ptype) for task in group
            ]
            all_to_all = all(d == len(pgroup) for d in in_degrees)
            parents = gen_tasks[ptype]
            for child in children:
                if all_to_all:
                    chosen = range(len(parents))
                else:
                    d = int(in_degrees[int(rng.integers(len(in_degrees)))])
                    d = min(d, len(parents))
                    chosen = sorted(
                        int(k) for k in rng.choice(len(parents), size=d, replace=False)
                    )
                for k in chosen:
                    child["parents"].add(parents[k]["name"])
        if parent_types and all(len(t.parents) > 0 for t in group):
            fallback = gen_tasks[parent_types[0]]
            for child in children:
                if not child["parents"]:
                    child["parents"].add(
                        fallback[int(rng.integers(len(fallback)))]["name"]
                    )

    all_gen = [t for wtype in ordered_types for t in gen_tasks[wtype]]
    children_of: dict[str, set[str]] = {t["name"]: set() for t in all_gen}
    for t in all_gen:
        for p in t["parents"]:
            children_of[p].add(t["name"])
    tasks = tuple(
        WfTask(
            name=t["name"],
            category=t["category"],
            runtime_s=t["runtime_s"],
            parents=tuple(sorted(t["parents"])),
            children=tuple(sorted(children_of[t["name"]])),
            files=t["files"],
            cores=t["cores"],
            memory_mb=t["memory_mb"],
            retries=t["retries"],
            program=t["program"],
            payload=t["payload"],
        )
        for t in all_gen
    )
    return WfInstance(
        name=gen_name,
        description=f"synthetic instance generated from {source.name!r} "
        f"(n_tasks={n_tasks}, seed={seed})",
        tasks=tasks,
        machines=source.machines,
        attributes={"generatedFrom": source.name, "seed": seed, "nTasks": n_tasks},
    )


_FDW_PHASES = ("A", "B", "C", "dist")


def _task_payload(task: WfTask) -> JobPayload | None:
    if task.payload is not None:
        return JobPayload(
            phase=task.payload.phase,
            n_items=task.payload.n_items,
            n_stations=task.payload.n_stations,
        )
    if task.category in _FDW_PHASES:
        return JobPayload(phase=task.category)
    return None


@dataclass(frozen=True)
class ImportResult:
    """What the importer built: the DAG and both manifests."""

    instance: WfInstance
    dag: DagDescription
    runtimes: dict[str, float]
    files_mb: dict[str, float]


def import_instance(instance: WfInstance) -> ImportResult:
    """The two-walk importer with one payload per task."""
    dag = DagDescription(name=instance.name)
    runtimes: dict[str, float] = {}
    files_mb: dict[str, float] = {}
    for task in instance.tasks:
        input_files = {
            f.name: f.size_bytes / 1048576.0 for f in task.files if f.link == "input"
        }
        for f in task.files:
            files_mb[f.name] = f.size_bytes / 1048576.0
        spec = JobSpec(
            name=task.name,
            executable=task.program or "run_fdw_phase.sh",
            arguments=" ".join(task.arguments),
            request_cpus=task.cores,
            request_memory_mb=task.memory_mb if task.memory_mb is not None else 8192,
            input_files=input_files,
            payload=_task_payload(task),
        )
        dag.add_node(DagNode(name=task.name, spec=spec, retries=task.retries))
        runtimes[task.name] = task.runtime_s
    for task in instance.tasks:
        for parent in sorted(task.parents):
            dag.add_edge(parent, task.name)
    return ImportResult(
        instance=instance, dag=dag, runtimes=runtimes, files_mb=files_mb
    )

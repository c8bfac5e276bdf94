"""WfChef-style synthetic instance generation.

WfCommons' WfChef builds recipes by detecting the recurring task
patterns of a real instance and replicating them to arbitrary scale.
This module implements that mechanism over :class:`~repro.wf.schema.
WfInstance` directly:

* tasks are grouped into **types** — (topological level, category)
  pairs — the pattern occurrences WfChef replicates;
* singleton types (the FDW's distance bootstrap and Phase-B bottleneck,
  or any once-per-workflow stage) stay singletons; multi-task types
  scale proportionally to the requested size (largest-remainder
  apportionment, deterministic);
* per generated task, a *template* task of its type is drawn with
  :mod:`repro.rng`, resampling runtime, resources, payload, and unique
  input files from the source's empirical joint distribution;
* files staged by more than one source task (the recyclable ``.npy``
  pair, the GF archive) are kept **shared** — same logical name and
  size — so Stash-cache warm-up dynamics survive scaling;
* edges replicate the source's type-to-type wiring: all-to-all fan-ins
  stay all-to-all (A -> B, B -> C), anything sparser samples the
  source's in-degree distribution.

The whole construction is a pure function of ``(source, n_tasks,
seed)``: the same arguments produce a byte-identical instance. It runs
with the cyclic collector paused (:mod:`repro.gcpause`): the instance is
an acyclic graph of frozen records, named by strings.
"""

from __future__ import annotations

import math

from repro.errors import WfFormatError
from repro.gcpause import collector_paused
from repro.rng import RngFactory, derive_seed
from repro.wf.schema import WfFile, WfInstance, WfTask

__all__ = ["generate_instance", "partition_instance"]


def _sanitize(category: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in category) or "task"


def _target_counts(
    ordered_types: list[tuple[int, str]], counts: dict[tuple[int, str], int], n_tasks: int
) -> dict[tuple[int, str], int]:
    """Apportion ``n_tasks`` across types (largest-remainder, deterministic)."""
    if n_tasks < len(ordered_types):
        raise WfFormatError(
            f"cannot generate {n_tasks} tasks: the source pattern has "
            f"{len(ordered_types)} task types"
        )
    singles = [t for t in ordered_types if counts[t] == 1]
    scalable = [t for t in ordered_types if counts[t] > 1]
    if not scalable:  # e.g. a pure chain: every stage replicates
        singles, scalable = [], list(ordered_types)
    out = {t: 1 for t in singles}
    remaining = n_tasks - len(singles)
    total = sum(counts[t] for t in scalable)
    raw = {t: remaining * counts[t] / total for t in scalable}
    for t in scalable:
        out[t] = max(1, math.floor(raw[t]))
    diff = remaining - sum(out[t] for t in scalable)
    # Hand out the leftover (or claw back the overshoot) by fractional
    # remainder; ties break on type order, so the result is deterministic.
    by_frac = sorted(scalable, key=lambda t: (-(raw[t] - math.floor(raw[t])), t))
    while diff != 0:
        progressed = False
        for t in by_frac if diff > 0 else reversed(by_frac):
            if diff > 0:
                out[t] += 1
                diff -= 1
                progressed = True
            elif out[t] > 1:
                out[t] -= 1
                diff += 1
                progressed = True
            if diff == 0:
                break
        if not progressed:
            raise WfFormatError(
                f"cannot reduce the source pattern to {n_tasks} tasks"
            )
    return out


@collector_paused()
def generate_instance(
    source: WfInstance, n_tasks: int, seed: int, *, name: str | None = None
) -> WfInstance:
    """Generate a synthetic instance of ``n_tasks`` tasks from a pattern.

    Deterministic: the same ``(source, n_tasks, seed)`` always yields an
    identical instance (asserted by the regression tests).
    """
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

    # Files staged by more than one source task keep their identity.
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

    # Type-to-type wiring observed in the source.
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
        # A type whose source tasks all had parents must not generate
        # orphan roots (that would shift every downstream level).
        if parent_types and all(len(t.parents) > 0 for t in group):
            fallback = gen_tasks[parent_types[0]]
            for child in children:
                if not child["parents"]:
                    child["parents"].add(
                        fallback[int(rng.integers(len(fallback)))]["name"]
                    )

    # Materialize WfTasks with symmetric parent/child tuples.
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


def partition_instance(
    source: WfInstance, k: int, seed: int = 0
) -> list[WfInstance]:
    """Split a workload into ``k`` same-pattern instances (the paper's
    1/2/4/8 concurrent-DAGMan study, generalized to any instance).

    Task counts split as evenly as possible (remainders to the first
    partitions, like :func:`repro.core.partition.partition_config`) and
    each partition is generated with a derived seed, so the joint
    workload is deterministic.
    """
    if k < 1:
        raise WfFormatError(f"partition count must be >= 1, got {k}")
    if k == 1:
        return [source]
    n = source.n_tasks
    levels = source.levels()
    n_types = len({(levels[t.name], t.category) for t in source.tasks})
    base, extra = divmod(n, k)
    counts = [base + (1 if i < extra else 0) for i in range(k)]
    if min(counts) < n_types:
        raise WfFormatError(
            f"cannot split {n} tasks across {k} DAGMans: each partition needs "
            f"at least {n_types} tasks (one per pattern type)"
        )
    return [
        generate_instance(
            source,
            counts[i],
            derive_seed(seed, "wf-partition", i),
            name=f"{source.name}_p{i:02d}",
        )
        for i in range(k)
    ]

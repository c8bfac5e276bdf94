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


def _slugs(ordered_types: list[tuple[int, str]]) -> dict[tuple[int, str], str]:
    """The task-name slug of every type: its sanitized category.

    Two categories of one level can sanitize alike (``"a.b"`` and
    ``"a-b"``). The first of them in type order keeps the slug; each
    later one takes the first ``-2``, ``-3``, ... suffix that no slug of
    its level uses, so every name stays unique and no type whose slug
    was already unique is renamed.
    """
    taken = {(level, _sanitize(category)) for level, category in ordered_types}
    used: set[tuple[int, str]] = set()
    slugs: dict[tuple[int, str], str] = {}
    for level, category in ordered_types:
        slug = _sanitize(category)
        if (level, slug) in used:
            k = 2
            while (level, f"{slug}-{k}") in taken:
                k += 1
            slug = f"{slug}-{k}"
            taken.add((level, slug))
        used.add((level, slug))
        slugs[level, category] = slug
    return slugs


class _Pattern:
    """What generation reads from a source instance, derived once.

    The task types in order with their sizes and name slugs, each type's
    templates (a source task with its shared files and the ones renamed
    per generated task) and its wiring: every parent type with the
    source in-degrees from it, or ``None`` when the type takes all of
    that parent type's tasks. :meth:`instantiate` makes one generated
    instance from it, so a split derives the pattern once for all its
    parts.
    """

    def __init__(self, source: WfInstance) -> None:
        self.source = source
        levels = source.levels()
        type_of: dict[str, tuple[int, str]] = {}
        groups: dict[tuple[int, str], list[WfTask]] = {}
        usage: dict[str, int] = {}
        for task in source.tasks:
            wtype = type_of[task.name] = (levels[task.name], task.category)
            groups.setdefault(wtype, []).append(task)
            for f in task.files:
                usage[f.name] = usage.get(f.name, 0) + 1
        self.types = sorted(groups)
        self.sizes = {t: len(g) for t, g in groups.items()}
        self.slugs = _slugs(self.types)
        # Files staged by more than one source task keep their identity;
        # the others are renamed per generated task.
        self.templates = {
            wtype: [
                (
                    task,
                    tuple(f for f in task.files if usage[f.name] > 1),
                    [f for f in task.files if usage[f.name] == 1],
                )
                for task in group
            ]
            for wtype, group in groups.items()
        }
        # Type -> its parent types, each with the in-degree from it of
        # every source task of the type (None when each takes all of
        # that parent type), and whether every such task has a parent.
        self.wiring = {}
        for wtype in self.types:
            group = groups[wtype]
            links = []
            for ptype in sorted({type_of[p] for task in group for p in task.parents}):
                in_degrees = [
                    sum(1 for p in task.parents if type_of[p] == ptype) for task in group
                ]
                all_to_all = all(d == self.sizes[ptype] for d in in_degrees)
                links.append((ptype, None if all_to_all else in_degrees))
            self.wiring[wtype] = (links, all(task.parents for task in group))

    def instantiate(self, n_tasks: int, seed: int, name: str | None) -> WfInstance:
        """One generated instance of ``n_tasks`` tasks (see
        :func:`generate_instance`)."""
        source, ordered_types = self.source, self.types
        rng = RngFactory(seed).generator("wf", "generate")
        targets = _target_counts(ordered_types, self.sizes, n_tasks)

        gen_name = name or f"{source.name}_gen{n_tasks}"
        prefix = "".join("-" if c.isspace() else c for c in gen_name)
        names: dict[tuple[int, str], list[str]] = {}
        drawn: dict[tuple[int, str], list[int]] = {}
        for wtype in ordered_types:
            stem = f"{prefix}_{self.slugs[wtype]}_L{wtype[0]}_"
            names[wtype] = [f"{stem}{i:05d}" for i in range(targets[wtype])]
            # One block draw yields the values, and leaves the generator
            # in the state, of one scalar draw per task.
            drawn[wtype] = rng.integers(self.sizes[wtype], size=targets[wtype]).tolist()

        # Type-to-type wiring observed in the source: every child of a
        # type gets all tasks of an all-to-all parent type (``common``)
        # and its own sample of each sparser one (``picked``, one list
        # per child).
        parents_of: dict[tuple[int, str], list[tuple[str, ...]]] = {}
        for wtype in ordered_types:
            n = targets[wtype]
            links, all_have_parents = self.wiring[wtype]
            common: list[str] = []
            picked: list[list[str]] | None = None
            for ptype, in_degrees in links:
                pnames = names[ptype]
                if in_degrees is None:
                    common += pnames
                    continue
                if picked is None:
                    picked = [[] for _ in range(n)]
                for chosen in picked:
                    d = min(in_degrees[int(rng.integers(len(in_degrees)))], len(pnames))
                    sample = rng.choice(len(pnames), size=d, replace=False).tolist()
                    chosen += [pnames[k] for k in sample]
            if picked is None:
                parents_of[wtype] = [tuple(sorted(common))] * n
                continue
            # A type whose source tasks all had parents must not generate
            # orphan roots (that would shift every downstream level).
            if not common and all_have_parents:
                fallback = names[links[0][0]]
                for chosen in picked:
                    if not chosen:
                        chosen.append(fallback[int(rng.integers(len(fallback)))])
            parents_of[wtype] = [tuple(sorted(common + chosen)) for chosen in picked]

        children_of: dict[str, list[str]] = {}
        for wtype in ordered_types:
            for child, parents in zip(names[wtype], parents_of[wtype]):
                for parent in parents:
                    children_of.setdefault(parent, []).append(child)

        tasks = []
        for wtype in ordered_types:
            category, options = wtype[1], self.templates[wtype]
            for task_name, k, parents in zip(names[wtype], drawn[wtype], parents_of[wtype]):
                template, files, unique = options[k]
                if unique:
                    files += tuple([
                        WfFile(f"{task_name}_in{j}", f.size_bytes, f.link)
                        for j, f in enumerate(unique)
                    ])
                children = children_of.get(task_name)
                tasks.append(
                    WfTask(
                        name=task_name,
                        category=category,
                        runtime_s=template.runtime_s,
                        parents=parents,
                        children=tuple(sorted(children)) if children else (),
                        files=files,
                        cores=template.cores,
                        memory_mb=template.memory_mb,
                        retries=template.retries,
                        program=template.program,
                        payload=template.payload,
                    )
                )
        return WfInstance(
            name=gen_name,
            description=f"synthetic instance generated from {source.name!r} "
            f"(n_tasks={n_tasks}, seed={seed})",
            tasks=tuple(tasks),
            machines=source.machines,
            attributes={"generatedFrom": source.name, "seed": seed, "nTasks": n_tasks},
        )


@collector_paused()
def generate_instance(
    source: WfInstance, n_tasks: int, seed: int, *, name: str | None = None
) -> WfInstance:
    """Generate a synthetic instance of ``n_tasks`` tasks from a pattern.

    Deterministic: the same ``(source, n_tasks, seed)`` always yields an
    identical instance (asserted by the regression tests). Task names
    are ``<name>_<category slug>_L<level>_<index>``, with any whitespace
    in ``name`` replaced by ``-``.
    """
    if n_tasks < 1:
        raise WfFormatError(f"n_tasks must be >= 1, got {n_tasks}")
    return _Pattern(source).instantiate(n_tasks, seed, name)


@collector_paused()
def partition_instance(
    source: WfInstance, k: int, seed: int = 0
) -> list[WfInstance]:
    """Split a workload into ``k`` same-pattern instances (the paper's
    1/2/4/8 concurrent-DAGMan study, generalized to any instance).

    Task counts split as evenly as possible (remainders to the first
    partitions, like :func:`repro.core.partition.partition_config`) and
    each partition is generated, from one derivation of the source's
    pattern, with a derived seed, so the joint workload is
    deterministic.
    """
    if k < 1:
        raise WfFormatError(f"partition count must be >= 1, got {k}")
    if k == 1:
        return [source]
    n = source.n_tasks
    pattern = _Pattern(source)
    n_types = len(pattern.types)
    base, extra = divmod(n, k)
    counts = [base + (1 if i < extra else 0) for i in range(k)]
    if min(counts) < n_types:
        raise WfFormatError(
            f"cannot split {n} tasks across {k} DAGMans: each partition needs "
            f"at least {n_types} tasks (one per pattern type)"
        )
    return [
        pattern.instantiate(
            counts[i], derive_seed(seed, "wf-partition", i), f"{source.name}_p{i:02d}"
        )
        for i in range(k)
    ]

"""Import WfFormat instances into the simulators' native structures.

Turns any :class:`~repro.wf.schema.WfInstance` — an exported FDW run, a
downloaded WfCommons trace, or a generated synthetic instance — into:

* a :class:`~repro.condor.dagfile.DagDescription` whose nodes carry
  fully-formed :class:`~repro.condor.jobs.JobSpec`\\ s (input files in
  MB, payloads, resource requests, retries),
* the per-task traced runtimes (seconds), and
* a transfer manifest (logical file name -> size in MB) for the
  :class:`~repro.osg.transfer.StashCache`.

The existing :class:`~repro.osg.pool.OSPoolSimulator` consumes the
result unchanged — jobs stage their declared inputs through the cache
model and the DAGMan engine enforces the imported edges. Tasks are
added in instance order and edges in sorted-parent order, which is
exactly the order :func:`repro.wf.export.instance_from_dag` emits, so
an export -> import round trip rebuilds a DAG whose engine behaves
bit-identically. The import runs with the cyclic collector paused
(:mod:`repro.gcpause`): it builds one acyclic DAG of specs and nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.condor.dagfile import DagDescription, DagNode
from repro.condor.jobs import JobPayload, JobSpec
from repro.gcpause import collector_paused
from repro.wf.schema import WfInstance, load_instance

__all__ = ["ImportedWorkflow", "import_instance"]

#: FDW phases the calibrated runtime model understands; other categories
#: import without a payload and replay from their traced runtimes.
_FDW_PHASES = ("A", "B", "C", "dist")


@dataclass(frozen=True)
class ImportedWorkflow:
    """A WfFormat instance translated to the simulators' structures."""

    instance: WfInstance
    dag: DagDescription
    #: Task name -> traced runtime in seconds (drives trace-mode replay).
    runtimes: dict[str, float]
    #: Logical file name -> size in MB (the Stash transfer manifest).
    files_mb: dict[str, float]

    @property
    def name(self) -> str:
        """The instance name."""
        return self.instance.name

    @property
    def n_tasks(self) -> int:
        """Tasks in the imported DAG."""
        return len(self.dag)


def _task_payload(task) -> JobPayload | None:
    if task.payload is not None:
        return JobPayload(
            phase=task.payload.phase,
            n_items=task.payload.n_items,
            n_stations=task.payload.n_stations,
        )
    if task.category in _FDW_PHASES:
        # FDW-categorised instances without the payload extension (e.g.
        # hand-written) still map onto the calibrated runtime model.
        return JobPayload(phase=task.category)
    return None


@collector_paused()
def import_instance(source: WfInstance | str | Path) -> ImportedWorkflow:
    """Translate an instance (or a WfFormat JSON path) for the pool.

    The DAG is not validated here: the instance already rejected
    cycles, and the engine that runs the DAG validates it. Tasks with
    equal payloads share one :class:`~repro.condor.jobs.JobPayload`.

    Raises
    ------
    WfFormatError
        On a malformed document (via :func:`repro.wf.schema.load_instance`).
    """
    instance = (
        source if isinstance(source, WfInstance) else load_instance(source)
    )
    dag = DagDescription(name=instance.name)
    runtimes: dict[str, float] = {}
    files_mb: dict[str, float] = {}
    # Payload fields (or, without a payload, the category) -> the
    # JobPayload every such task shares.
    payloads: dict[tuple[str, int, int] | str, JobPayload | None] = {}
    for task in instance.tasks:
        input_files: dict[str, float] = {}
        for f in task.files:
            size_mb = files_mb[f.name] = f.size_bytes / 1048576.0
            if f.link == "input":
                input_files[f.name] = size_mb
        wp = task.payload
        key = task.category if wp is None else (wp.phase, wp.n_items, wp.n_stations)
        if key not in payloads:
            payloads[key] = _task_payload(task)
        spec = JobSpec(
            name=task.name,
            executable=task.program or "run_fdw_phase.sh",
            arguments=" ".join(task.arguments),
            request_cpus=task.cores,
            request_memory_mb=task.memory_mb if task.memory_mb is not None else 8192,
            input_files=input_files,
            payload=payloads[key],
        )
        dag.add_node(DagNode(task.name, spec, task.retries))
        runtimes[task.name] = task.runtime_s
    for task in instance.tasks:
        for parent in sorted(task.parents):
            dag.add_edge(parent, task.name)
    return ImportedWorkflow(
        instance=instance, dag=dag, runtimes=runtimes, files_mb=files_mb
    )

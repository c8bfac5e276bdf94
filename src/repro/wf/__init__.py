"""WfFormat workflow interchange (paper §2.2's WfCommons connection).

The :mod:`repro.wf` package speaks the WfCommons community trace format
(WfFormat): it exports completed simulated FDW runs as WfFormat
instances, imports any WfFormat instance back into the simulators'
native structures, generates WfChef-style synthetic instances at
arbitrary scale, and replays imported or generated instances through
the OSPool and bursting simulators. See DESIGN.md ("Workflow
interchange") for the concept mapping and the round-trip guarantee.
"""

from repro.core.traces import metrics_to_batch_trace
from repro.wf.export import export_fdw_run, instance_from_dag, runtimes_from_metrics
from repro.wf.generate import generate_instance, partition_instance
from repro.wf.importer import ImportedWorkflow, import_instance
from repro.wf.replay import (
    CategoryCloudModel,
    ReplayResult,
    TraceRuntimeModel,
    replay_bursting,
    replay_instance,
    replay_study,
)
from repro.wf.schema import (
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

__all__ = [
    "SCHEMA_VERSION",
    "WfFile",
    "WfMachine",
    "WfPayload",
    "WfTask",
    "WfInstance",
    "load_instance",
    "loads_instance",
    "dump_instance",
    "dumps_instance",
    "instance_from_dag",
    "export_fdw_run",
    "runtimes_from_metrics",
    "ImportedWorkflow",
    "import_instance",
    "generate_instance",
    "partition_instance",
    "TraceRuntimeModel",
    "CategoryCloudModel",
    "ReplayResult",
    "replay_instance",
    "replay_study",
    "metrics_to_batch_trace",
    "replay_bursting",
]

"""HTCondor substrate: jobs, submit descriptions, DAGs, user logs.

A from-scratch model of the HTCondor pieces the FDW uses:

* :mod:`repro.condor.submit` — submit description files,
* :mod:`repro.condor.jobs` — job specs and the HTCondor job lifecycle,
* :mod:`repro.condor.events` — user-log event writing/parsing (what the
  paper's monitoring shell scripts consume),
* :mod:`repro.condor.dagfile` — ``.dag`` files and the DAG structure,
* :mod:`repro.condor.dagman` — the DAGMan engine (ready-set release,
  throttles, retries).

The engine is deliberately decoupled from wall-clock time: it is driven
by the discrete-event pool simulator in :mod:`repro.osg`.
"""

from repro.condor.dagfile import DagDescription, DagNode
from repro.condor.dagman import DagmanEngine, DagmanOptions
from repro.condor.events import JobEvent, JobEventType, UserLog, parse_user_log
from repro.condor.jobs import JobSpec, JobState
from repro.condor.rescue import apply_rescue, read_rescue_file, write_rescue_file
from repro.condor.submit import SubmitDescription

__all__ = [
    "DagDescription",
    "DagNode",
    "DagmanEngine",
    "DagmanOptions",
    "JobEvent",
    "JobEventType",
    "JobSpec",
    "JobState",
    "SubmitDescription",
    "UserLog",
    "apply_rescue",
    "parse_user_log",
    "read_rescue_file",
    "write_rescue_file",
]

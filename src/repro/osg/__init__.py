"""Discrete-event simulator of an OSG-style high-throughput pool.

The Open Science Pool is shared, opportunistic infrastructure: the
capacity a single user sees fluctuates as other workloads and glideins
come and go, a negotiator matches idle jobs to slots in periodic cycles,
and large input files are delivered through a Stash/OSDF cache. This
subpackage models exactly those mechanisms:

* :mod:`repro.osg.des` — the handle-free event-queue core,
* :mod:`repro.osg.capacity` — time-varying per-user slot capacity,
* :mod:`repro.osg.transfer` — the Stash-cache file delivery model,
* :mod:`repro.osg.runtimes` — job execution-time sampling calibrated to
  the paper's observed phase costs,
* :mod:`repro.osg.schedd` / :mod:`repro.osg.negotiator` — queueing and
  matchmaking (one fair round-robin matcher per negotiation cycle),
* :mod:`repro.osg.jobtable` — struct-of-arrays job state behind the
  pool engine,
* :mod:`repro.osg.metrics` — per-job and per-second statistics,
* :mod:`repro.osg.pool` — the :class:`OSPoolSimulator` facade that runs
  DAGMan engines to completion on one struct-of-arrays engine (batched
  submission, coalesced completion events).

Calibration targets and the mechanisms behind each reproduced figure are
documented in DESIGN.md.
"""

from repro.osg.capacity import CapacityProcess, FixedCapacity, MarkovModulatedCapacity
from repro.osg.des import Simulator
from repro.osg.jobtable import JobTable, JobView
from repro.osg.metrics import JobRecord, PoolMetrics
from repro.osg.negotiator import NegotiatorConfig, negotiate
from repro.osg.pool import DagmanRun, OSPoolConfig, OSPoolSimulator
from repro.osg.runtimes import RuntimeModel
from repro.osg.transfer import StashCache, TransferConfig

__all__ = [
    "CapacityProcess",
    "DagmanRun",
    "FixedCapacity",
    "JobRecord",
    "JobTable",
    "JobView",
    "MarkovModulatedCapacity",
    "NegotiatorConfig",
    "OSPoolConfig",
    "OSPoolSimulator",
    "PoolMetrics",
    "RuntimeModel",
    "Simulator",
    "StashCache",
    "TransferConfig",
    "negotiate",
]

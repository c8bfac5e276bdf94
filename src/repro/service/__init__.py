"""Multi-tenant portal service: the community gateway over the VDC.

The paper's VDC portal serves one user at a time; this package is the
science-gateway layer (VERCE-style) that serves a community: a
``Runner`` protocol every backend sits behind, an asyncio submission
queue with per-tenant fair share, content-addressed request coalescing,
typed quota/backpressure admission control, and an async results API
over the VDC catalog/storage. See :mod:`repro.service.service` for the
design notes.
"""

from repro.service.clock import VirtualClock
from repro.service.demo import DemoReport, run_service_demo
from repro.service.runner import (
    BurstingRunner,
    LocalBackend,
    PoolRunner,
    Runner,
    RunnerOutcome,
    SimulatedRunner,
)
from repro.service.service import (
    PortalService,
    ServiceQuota,
    ServiceResult,
    ServiceStats,
    Ticket,
    TraceEvent,
)

__all__ = [
    "VirtualClock",
    "Runner",
    "RunnerOutcome",
    "PoolRunner",
    "LocalBackend",
    "BurstingRunner",
    "SimulatedRunner",
    "PortalService",
    "ServiceQuota",
    "ServiceResult",
    "ServiceStats",
    "Ticket",
    "TraceEvent",
    "DemoReport",
    "run_service_demo",
]

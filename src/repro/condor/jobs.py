"""Job specifications and the HTCondor job lifecycle.

A :class:`JobSpec` is the static description a submit file carries
(executable, resource requests, input files, and an FDW payload telling
the runtime model what the job computes). :class:`JobState` and the
legal-transition table are HTCondor's job lifecycle; the dynamic record
lives in the pool's :class:`~repro.osg.jobtable.JobTable`, whose
``transition`` raises :class:`~repro.errors.JobStateError` on an
illegal move, which is how the simulator catches its own bookkeeping
bugs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import JobStateError
from repro.slotinit import slot_init

__all__ = ["JobState", "JobSpec", "JobPayload"]


class JobState(enum.Enum):
    """HTCondor job states (subset used by the simulator)."""

    UNSUBMITTED = "unsubmitted"
    IDLE = "idle"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    HELD = "held"
    REMOVED = "removed"


#: Legal transitions of the job lifecycle.
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.UNSUBMITTED: frozenset({JobState.IDLE}),
    JobState.IDLE: frozenset({JobState.RUNNING, JobState.HELD, JobState.REMOVED}),
    JobState.RUNNING: frozenset(
        {JobState.COMPLETED, JobState.FAILED, JobState.IDLE, JobState.HELD, JobState.REMOVED}
    ),
    JobState.HELD: frozenset({JobState.IDLE, JobState.REMOVED}),
    JobState.COMPLETED: frozenset(),
    JobState.FAILED: frozenset({JobState.IDLE}),  # retry re-queues
    JobState.REMOVED: frozenset(),
}


@dataclass(frozen=True)
class JobPayload:
    """What an FDW job computes — consumed by the runtime model.

    Attributes
    ----------
    phase:
        ``"A"`` (ruptures), ``"B"`` (Green's functions), ``"C"``
        (waveforms), or ``"dist"`` (distance-matrix bootstrap).
    n_items:
        Work items in the chunk (ruptures for A/C; stations for B).
    n_stations:
        Station-list length, the dominant cost knob.
    """

    phase: str
    n_items: int = 1
    n_stations: int = 121

    def __post_init__(self) -> None:
        if self.phase not in ("A", "B", "C", "dist"):
            raise JobStateError(f"unknown FDW phase {self.phase!r}")
        if self.n_items < 1 or self.n_stations < 1:
            raise JobStateError("payload sizes must be >= 1")


@slot_init
@dataclass(frozen=True, slots=True)
class JobSpec:
    """Static job description (the submit-file content).

    ``input_files`` maps logical file names to sizes in MB; the transfer
    model charges for delivering them (via Stash Cache when eligible).
    """

    name: str
    executable: str = "run_fdw_phase.sh"
    arguments: str = ""
    request_cpus: int = 4
    request_memory_mb: int = 8192
    request_disk_mb: int = 16384
    requirements: str | None = None
    input_files: dict[str, float] = field(default_factory=dict)
    payload: JobPayload | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise JobStateError("job name must be non-empty")
        if self.request_cpus < 1:
            raise JobStateError(f"{self.name}: request_cpus must be >= 1")
        if self.request_memory_mb < 1 or self.request_disk_mb < 1:
            raise JobStateError(f"{self.name}: resource requests must be >= 1 MB")
        for fname, size in self.input_files.items():
            if size < 0:
                raise JobStateError(f"{self.name}: negative size for input {fname!r}")

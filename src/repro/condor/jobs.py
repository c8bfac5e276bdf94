"""Job specifications and the HTCondor job state machine.

A :class:`JobSpec` is the static description a submit file carries
(executable, resource requests, input files, and an FDW payload telling
the runtime model what the job computes). A :class:`Job` is the dynamic
record: state, timestamps, and the slot it ran on.

State transitions follow HTCondor's job lifecycle; illegal transitions
raise :class:`~repro.errors.JobStateError`, which is how the simulator
catches its own bookkeeping bugs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.errors import JobStateError
from repro.slotinit import slot_init

__all__ = ["JobState", "JobSpec", "Job", "JobPayload"]


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


_cluster_counter = itertools.count(1)


@dataclass
class Job:
    """Dynamic job record tracked by the schedd and the simulator.

    Timestamps are simulation seconds; ``None`` until the corresponding
    event happens. ``submit_time``/``start_time``/``end_time`` are what
    the bursting-trace CSVs export.
    """

    spec: JobSpec
    cluster_id: int = field(default_factory=lambda: next(_cluster_counter))
    state: JobState = JobState.UNSUBMITTED
    submit_time: float | None = None
    start_time: float | None = None
    end_time: float | None = None
    slot_name: str | None = None
    n_retries: int = 0
    owner: str = "fdw"

    def transition(self, new_state: JobState, time: float) -> None:
        """Move to ``new_state`` at simulation time ``time``.

        Updates the timestamp that corresponds to the entered state and
        enforces the legal-transition table.
        """
        allowed = _TRANSITIONS[self.state]
        if new_state not in allowed:
            raise JobStateError(
                f"job {self.spec.name} (cluster {self.cluster_id}): illegal "
                f"transition {self.state.value} -> {new_state.value}"
            )
        if new_state is JobState.IDLE and self.state is JobState.UNSUBMITTED:
            self.submit_time = time
        elif new_state is JobState.IDLE and self.state in (
            JobState.RUNNING,
            JobState.FAILED,
            JobState.HELD,
        ):
            # Re-queue (eviction, retry, or release): clear the execution record.
            self.start_time = None
            self.slot_name = None
        elif new_state is JobState.RUNNING:
            self.start_time = time
        elif new_state in (JobState.COMPLETED, JobState.FAILED, JobState.REMOVED):
            self.end_time = time
        self.state = new_state

    # -- derived --------------------------------------------------------------

    @property
    def wait_time(self) -> float | None:
        """Queue wait (start - submit) in seconds, when both are known."""
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def execution_time(self) -> float | None:
        """Execution wall time (end - start) in seconds, when known."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def is_terminal(self) -> bool:
        """True in COMPLETED or REMOVED (no further transitions expected)."""
        return self.state in (JobState.COMPLETED, JobState.REMOVED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.spec.name}, cluster={self.cluster_id}, "
            f"state={self.state.value})"
        )

"""Monitoring: statistics from HTCondor user logs.

The paper built "a system to monitor the progress of running and
completed DAGMans ... Shell scripts parse HTCondor log files to extract
information (e.g., runtime, wait times, and complete/failed job count)
and compute job states and durations". :class:`DagmanStats` is that
system. It reads only log events, never simulator internals: the events
a :class:`~repro.condor.events.UserLog` recorded
(:meth:`DagmanStats.from_user_log`), or the text at the file boundary
(:meth:`DagmanStats.from_log_text`, :meth:`DagmanStats.from_log_file`),
the paper's path for real log files. Both build the same statistics,
and the tests cross-check them against the simulator's own records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import LogParseError
from repro.condor.events import JobEvent, JobEventType, UserLog, parse_user_log
from repro.units import jobs_per_minute

__all__ = ["JobTiming", "DagmanStats"]


@dataclass(frozen=True)
class JobTiming:
    """Reconstructed timing of one job (cluster) from its log events."""

    cluster_id: int
    submit_time: float
    start_time: float | None
    end_time: float | None
    return_value: int | None
    n_evictions: int
    n_holds: int = 0

    @property
    def completed(self) -> bool:
        """Normal termination with return value 0."""
        return self.end_time is not None and self.return_value == 0

    @property
    def failed(self) -> bool:
        """Terminated abnormally.

        A TERMINATED event whose detail line is missing or unparseable
        leaves ``return_value`` as ``None``; such jobs cannot be counted
        as completed, so they are classified failed (otherwise they
        silently vanish from both counters).
        """
        return self.end_time is not None and self.return_value != 0

    @property
    def wait_s(self) -> float | None:
        """Queue wait (last execute - submit)."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def exec_s(self) -> float | None:
        """Execution time (terminate - last execute)."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time


@dataclass
class DagmanStats:
    """All statistics derivable from one DAGMan's user log."""

    jobs: dict[int, JobTiming] = field(default_factory=dict)

    @classmethod
    def from_user_log(cls, log: UserLog) -> "DagmanStats":
        """Statistics from a recorded log, without rendering its text.

        Equal to ``from_log_text(log.render())``: the events are read
        exactly as the text parser would read them back
        (:meth:`~repro.condor.events.UserLog.events`).
        """
        return cls._from_events(log.events(), source="<user log>")

    @classmethod
    def from_log_text(cls, text: str, source: str = "<string>") -> "DagmanStats":
        """Parse user-log text and reconstruct per-job timings."""
        return cls._from_events(parse_user_log(text, source=source), source)

    @classmethod
    def _from_events(cls, events: list[JobEvent], source: str) -> "DagmanStats":
        """Reconstruct per-job timings from log events.

        The *last* EXECUTE before termination defines the execution
        interval (earlier ones were evicted attempts), matching how the
        paper's scripts compute durations.
        """
        submit: dict[int, float] = {}
        last_exec: dict[int, float] = {}
        term: dict[int, tuple[float, int | None]] = {}
        evictions: dict[int, int] = {}
        holds: dict[int, int] = {}
        for ev in events:
            if ev.event_type is JobEventType.SUBMIT:
                if ev.cluster_id in submit:
                    raise LogParseError(
                        f"{source}: duplicate submit for cluster {ev.cluster_id}"
                    )
                submit[ev.cluster_id] = ev.time_s
            elif ev.event_type is JobEventType.EXECUTE:
                last_exec[ev.cluster_id] = ev.time_s
            elif ev.event_type is JobEventType.EVICTED:
                evictions[ev.cluster_id] = evictions.get(ev.cluster_id, 0) + 1
            elif ev.event_type is JobEventType.HELD:
                holds[ev.cluster_id] = holds.get(ev.cluster_id, 0) + 1
            elif ev.event_type is JobEventType.TERMINATED:
                term[ev.cluster_id] = (ev.time_s, ev.return_value)
        jobs: dict[int, JobTiming] = {}
        for cluster_id, sub_t in submit.items():
            end = term.get(cluster_id)
            jobs[cluster_id] = JobTiming(
                cluster_id=cluster_id,
                submit_time=sub_t,
                start_time=last_exec.get(cluster_id),
                end_time=end[0] if end else None,
                return_value=end[1] if end else None,
                n_evictions=evictions.get(cluster_id, 0),
                n_holds=holds.get(cluster_id, 0),
            )
        return cls(jobs=jobs)

    @classmethod
    def from_log_file(cls, path: str | Path) -> "DagmanStats":
        """Parse a user log file from disk."""
        path = Path(path)
        if not path.exists():
            raise LogParseError(f"log file not found: {path}")
        return cls.from_log_text(path.read_text(), source=str(path))

    # -- headline statistics -------------------------------------------------

    @property
    def n_jobs(self) -> int:
        """Jobs ever submitted."""
        return len(self.jobs)

    @property
    def n_completed(self) -> int:
        """Jobs that terminated normally."""
        return sum(1 for j in self.jobs.values() if j.completed)

    @property
    def n_failed(self) -> int:
        """Jobs that terminated abnormally."""
        return sum(1 for j in self.jobs.values() if j.failed)

    def runtime_s(self) -> float:
        """DAGMan runtime: first submit to last termination."""
        if not self.jobs:
            raise LogParseError("no jobs in log")
        first = min(j.submit_time for j in self.jobs.values())
        ends = [j.end_time for j in self.jobs.values() if j.end_time is not None]
        if not ends:
            raise LogParseError("no terminations in log")
        return max(ends) - first

    def total_throughput_jpm(self) -> float:
        """Completed jobs per minute of DAGMan runtime (eq. 2 term)."""
        return jobs_per_minute(self.n_completed, self.runtime_s())

    def wait_times_s(self) -> np.ndarray:
        """Sorted queue waits of jobs that started."""
        return np.sort(
            np.array([j.wait_s for j in self.jobs.values() if j.wait_s is not None])
        )

    def exec_times_s(self) -> np.ndarray:
        """Sorted execution times of terminated jobs."""
        return np.sort(
            np.array([j.exec_s for j in self.jobs.values() if j.exec_s is not None])
        )

    def report(self, name: str = "dagman") -> str:
        """Human-readable monitoring report (what the FDW prints)."""
        from repro.units import format_duration, to_minutes

        waits = self.wait_times_s()
        execs = self.exec_times_s()
        lines = [
            f"=== DAGMan {name} ===",
            f"jobs: {self.n_jobs} submitted, {self.n_completed} completed, "
            f"{self.n_failed} failed",
            f"runtime: {format_duration(self.runtime_s())}",
            f"total throughput: {self.total_throughput_jpm():.2f} jobs/min",
        ]
        if waits.size:
            lines.append(
                f"wait times (min): mean {to_minutes(float(np.mean(waits))):.1f}, "
                f"max {to_minutes(float(np.max(waits))):.1f}"
            )
        if execs.size:
            lines.append(
                f"exec times (min): mean {to_minutes(float(np.mean(execs))):.1f}, "
                f"max {to_minutes(float(np.max(execs))):.1f}"
            )
        return "\n".join(lines)

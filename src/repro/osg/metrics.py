"""Per-job records and pool-level statistics.

:class:`PoolMetrics` is the analysis surface for everything Figures 2-4
report: per-job execution and wait times, instant throughput (paper
eq. 5), running-job counts per second, and per-DAGMan total runtime and
throughput. All series are computed vectorized from the job records
after the simulation ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.slotinit import slot_init
from repro.units import jobs_per_minute

__all__ = ["JobRecord", "DagmanSummary", "PoolMetrics"]


@slot_init
@dataclass(frozen=True, slots=True)
class JobRecord:
    """Final timing record of one job attempt that completed.

    Slotted: a million-job run keeps one per attempt.
    """

    node_name: str
    dagman: str
    phase: str
    cluster_id: int
    submit_time: float
    start_time: float
    end_time: float
    n_evictions: int = 0
    success: bool = True

    def __post_init__(self) -> None:
        if not (self.submit_time <= self.start_time <= self.end_time):
            raise SimulationError(
                f"job {self.node_name}: non-monotone times "
                f"({self.submit_time}, {self.start_time}, {self.end_time})"
            )

    @property
    def wait_s(self) -> float:
        """Queue wait in seconds."""
        return self.start_time - self.submit_time

    @property
    def exec_s(self) -> float:
        """Execution wall time in seconds."""
        return self.end_time - self.start_time


@dataclass(frozen=True)
class DagmanSummary:
    """Per-DAGMan totals (inputs to the paper's eqs. 1-4)."""

    name: str
    submit_time: float
    end_time: float
    n_jobs: int

    @property
    def runtime_s(self) -> float:
        """Total DAGMan runtime in seconds."""
        return self.end_time - self.submit_time

    @property
    def throughput_jpm(self) -> float:
        """Total throughput in jobs/minute (eq. 2 numerator term)."""
        return jobs_per_minute(self.n_jobs, self.runtime_s)


@dataclass
class PoolMetrics:
    """All job records plus per-DAGMan summaries for one pool run."""

    records: list[JobRecord] = field(default_factory=list)
    dagmans: dict[str, DagmanSummary] = field(default_factory=dict)
    capacity_trace: list[tuple[float, int]] = field(default_factory=list)

    # -- aggregation across attempts -----------------------------------------

    @classmethod
    def merged(cls, attempts: "list[PoolMetrics]") -> "PoolMetrics":
        """Merge metrics from successive rescue attempts of a batch.

        Job records and capacity traces concatenate; a DAGMan appearing
        in several attempts (the original run plus its rescues) merges
        into one summary spanning first submit to last end, with the job
        count summed so every-node-exactly-once accounting still holds.
        """
        if not attempts:
            raise SimulationError("no metrics to merge")
        merged = cls()
        for m in attempts:
            merged.records.extend(m.records)
            merged.capacity_trace.extend(m.capacity_trace)
            for name, s in m.dagmans.items():
                prev = merged.dagmans.get(name)
                if prev is None:
                    merged.dagmans[name] = s
                else:
                    merged.dagmans[name] = DagmanSummary(
                        name=name,
                        submit_time=min(prev.submit_time, s.submit_time),
                        end_time=max(prev.end_time, s.end_time),
                        n_jobs=prev.n_jobs + s.n_jobs,
                    )
        return merged

    # -- selection ---------------------------------------------------------

    def for_dagman(self, name: str) -> list[JobRecord]:
        """Completed-job records of one DAGMan."""
        if name not in self.dagmans:
            raise SimulationError(f"unknown DAGMan {name!r}")
        return [r for r in self.records if r.dagman == name]

    # -- scalar statistics ---------------------------------------------------

    def wait_times_s(self, phase: str | None = None, dagman: str | None = None) -> np.ndarray:
        """Sorted queue waits in seconds."""
        vals = [
            r.wait_s
            for r in self.records
            if (phase is None or r.phase == phase)
            and (dagman is None or r.dagman == dagman)
        ]
        return np.sort(np.array(vals))

    def exec_times_s(self, phase: str | None = None, dagman: str | None = None) -> np.ndarray:
        """Sorted execution times in seconds."""
        vals = [
            r.exec_s
            for r in self.records
            if (phase is None or r.phase == phase)
            and (dagman is None or r.dagman == dagman)
        ]
        return np.sort(np.array(vals))

    # -- time series ------------------------------------------------------------

    def _window(self, dagman: str | None) -> tuple[float, float]:
        if dagman is not None:
            s = self.dagmans[dagman]
            return s.submit_time, s.end_time
        if not self.dagmans:
            raise SimulationError("no DAGMans recorded")
        return (
            min(s.submit_time for s in self.dagmans.values()),
            max(s.end_time for s in self.dagmans.values()),
        )

    def instant_throughput_jpm(self, dagman: str | None = None) -> np.ndarray:
        """Instant throughput per second of runtime (paper eq. 5).

        ``omega[t] = completions(<= t) / minutes elapsed`` relative to
        the (DAGMan's) submit time. Index 0 is the first second.
        """
        t0, t1 = self._window(dagman)
        n = max(1, int(np.ceil(t1 - t0)))
        selected = [
            r
            for r in self.records
            if (dagman is None or r.dagman == dagman) and r.success
        ]
        ends = np.fromiter(
            (r.end_time - t0 for r in selected), dtype=float, count=len(selected)
        )
        counts = np.zeros(n + 1)
        if ends.size:
            idx = np.clip(np.ceil(ends).astype(int), 0, n)
            np.add.at(counts, idx, 1.0)
        cumulative = np.cumsum(counts)[1:]
        minutes = (np.arange(1, n + 1)) / 60.0
        return cumulative / minutes

    def running_jobs(self, dagman: str | None = None) -> np.ndarray:
        """Running jobs sampled at each integer second of the window.

        A job contributes to second ``t`` iff ``start <= t < end``
        (exact sampling, so the series never exceeds the instantaneous
        slot occupancy — back-to-back claim reuse does not double-count
        the handover second).
        """
        t0, t1 = self._window(dagman)
        n = max(1, int(np.ceil(t1 - t0)))
        selected = (
            self.records
            if dagman is None
            else [r for r in self.records if r.dagman == dagman]
        )
        delta = np.zeros(n + 2)
        if selected:
            # Vectorized difference array: one clip/ceil pass instead
            # of a Python loop per record (the loop dominated analysis
            # time on million-record runs).
            starts = np.fromiter(
                (r.start_time for r in selected), dtype=float, count=len(selected)
            )
            ends = np.fromiter(
                (r.end_time for r in selected), dtype=float, count=len(selected)
            )
            a = np.clip(np.ceil(starts - t0), 0, n).astype(np.int64)
            b = np.clip(np.ceil(ends - t0), 0, n + 1).astype(np.int64)
            occupied = b > a
            np.add.at(delta, a[occupied], 1.0)
            np.add.at(delta, b[occupied], -1.0)
        return np.cumsum(delta)[:n]

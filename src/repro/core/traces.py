"""CSV traces: the bursting simulator's input format.

Paper §3.1: "This bursting simulator requires two .csv files as input
that contain the submission, execution, and termination times of an
actual DAGMan batch and the same information for individual jobs within
it." This module defines that format, builds it from simulated pool
runs (:func:`metrics_to_batch_trace`), writes it (:func:`export_traces`,
through :func:`render_trace_csvs`), and reads it back.

``<name>_batch.csv``::

    dagman,submit_s,first_execute_s,end_s,n_jobs
    fdw,0.0,95.0,50760.0,9001

``<name>_jobs.csv``::

    node,phase,submit_s,start_s,end_s
    fdw_A_00000,A,30.0,95.0,245.0
    ...
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import TraceError
from repro.osg.metrics import PoolMetrics

if TYPE_CHECKING:  # pragma: no cover - annotations only (repro.wf imports this module)
    from repro.core.submit_osg import FdwBatchResult
    from repro.wf.replay import ReplayResult

__all__ = [
    "JobTrace",
    "BatchTrace",
    "metrics_to_batch_trace",
    "export_traces",
    "read_traces",
    "render_trace_csvs",
]

_BATCH_HEADER = ["dagman", "submit_s", "first_execute_s", "end_s", "n_jobs"]
_JOBS_HEADER = ["node", "phase", "submit_s", "start_s", "end_s"]


@dataclass(frozen=True)
class JobTrace:
    """Timing of one job inside a traced batch."""

    node: str
    phase: str
    submit_s: float
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not (self.submit_s <= self.start_s <= self.end_s):
            raise TraceError(
                f"job {self.node}: non-monotone times "
                f"({self.submit_s}, {self.start_s}, {self.end_s})"
            )

    @property
    def exec_s(self) -> float:
        """Execution duration."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class BatchTrace:
    """One DAGMan batch: header info plus all job timings."""

    dagman: str
    submit_s: float
    first_execute_s: float
    end_s: float
    jobs: tuple[JobTrace, ...]

    def __post_init__(self) -> None:
        if not self.jobs:
            raise TraceError(f"batch {self.dagman}: no jobs")
        if not (self.submit_s <= self.first_execute_s <= self.end_s):
            raise TraceError(f"batch {self.dagman}: non-monotone batch times")

    @property
    def n_jobs(self) -> int:
        """Jobs in the batch."""
        return len(self.jobs)

    @property
    def runtime_s(self) -> float:
        """Batch runtime (submit to last termination)."""
        return self.end_s - self.submit_s

    def phase_jobs(self, phase: str) -> list[JobTrace]:
        """Jobs of one FDW phase."""
        return [j for j in self.jobs if j.phase == phase]


def metrics_to_batch_trace(metrics: PoolMetrics, dagman: str) -> BatchTrace:
    """Build one DAGMan's bursting trace from pool metrics.

    Successful completions become the per-job trace, sorted by submit
    time (the bursting simulator replays the batch's real completions,
    as the paper's did). The batch header takes the DAGMan's submit and
    end times, and its first EXECUTE is the earliest start across *all*
    attempts, failed and retried ones included — the log-derived
    semantics of :class:`~repro.core.monitor.DagmanStats`.

    Raises
    ------
    TraceError
        If the DAGMan is unknown or has no successful jobs.
    """
    summary = metrics.dagmans.get(dagman)
    if summary is None:
        raise TraceError(f"no DAGMan {dagman!r} in the metrics")
    all_records = metrics.for_dagman(dagman)
    records = [r for r in all_records if r.success]
    if not records:
        raise TraceError(f"DAGMan {dagman!r} has no successful jobs to trace")
    jobs = tuple(
        JobTrace(
            node=r.node_name,
            phase=r.phase,
            submit_s=r.submit_time,
            start_s=r.start_time,
            end_s=r.end_time,
        )
        for r in sorted(records, key=lambda r: r.submit_time)
    )
    return BatchTrace(
        dagman=dagman,
        submit_s=summary.submit_time,
        first_execute_s=min(r.start_time for r in all_records),
        end_s=summary.end_time,
        jobs=jobs,
    )


def export_traces(
    result: FdwBatchResult | ReplayResult,
    dagman: str,
    directory: str | Path,
    name: str | None = None,
) -> tuple[Path, Path]:
    """Write the two CSVs for one DAGMan of a pool run or a replay.

    The files are ``<name>_batch.csv`` and ``<name>_jobs.csv``, ``name``
    defaulting to the DAGMan's.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = name or dagman
    paths = (directory / f"{name}_batch.csv", directory / f"{name}_jobs.csv")
    texts = render_trace_csvs(metrics_to_batch_trace(result.metrics, dagman))
    for path, text in zip(paths, texts):
        path.write_text(text, newline="")
    return paths


def _read_csv_rows(path: Path, header: list[str]) -> list[dict[str, str]]:
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            got_header = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: empty trace file") from None
        if got_header != header:
            raise TraceError(f"{path}: bad header {got_header!r}, expected {header!r}")
        rows = [dict(zip(header, row)) for row in reader if row]
    if not rows:
        raise TraceError(f"{path}: no data rows")
    return rows


def read_traces(batch_csv: str | Path, jobs_csv: str | Path) -> BatchTrace:
    """Read the CSV pair back into a :class:`BatchTrace`.

    Raises
    ------
    TraceError
        On missing files, malformed headers or rows, or inconsistent
        job counts.
    """
    batch_csv, jobs_csv = Path(batch_csv), Path(jobs_csv)
    batch_rows = _read_csv_rows(batch_csv, _BATCH_HEADER)
    if len(batch_rows) != 1:
        raise TraceError(f"{batch_csv}: expected exactly one batch row")
    b = batch_rows[0]
    job_rows = _read_csv_rows(jobs_csv, _JOBS_HEADER)
    try:
        jobs = tuple(
            JobTrace(
                node=row["node"],
                phase=row["phase"],
                submit_s=float(row["submit_s"]),
                start_s=float(row["start_s"]),
                end_s=float(row["end_s"]),
            )
            for row in job_rows
        )
        trace = BatchTrace(
            dagman=b["dagman"],
            submit_s=float(b["submit_s"]),
            first_execute_s=float(b["first_execute_s"]),
            end_s=float(b["end_s"]),
            jobs=jobs,
        )
    except (KeyError, ValueError) as exc:
        raise TraceError(f"malformed trace row: {exc}") from exc
    try:
        n_jobs = int(b["n_jobs"])
    except (KeyError, ValueError) as exc:
        raise TraceError(f"{batch_csv}: malformed n_jobs: {exc}") from exc
    if trace.n_jobs != n_jobs:
        raise TraceError(
            f"batch header says {n_jobs} jobs, jobs file has {trace.n_jobs}"
        )
    return trace


def render_trace_csvs(trace: BatchTrace) -> tuple[str, str]:
    """Render a :class:`BatchTrace` as the text of its two CSV files."""
    batch_buf = io.StringIO()
    writer = csv.writer(batch_buf)
    writer.writerow(_BATCH_HEADER)
    writer.writerow(
        [
            trace.dagman,
            f"{trace.submit_s:.3f}",
            f"{trace.first_execute_s:.3f}",
            f"{trace.end_s:.3f}",
            str(trace.n_jobs),
        ]
    )
    jobs_buf = io.StringIO()
    writer = csv.writer(jobs_buf)
    writer.writerow(_JOBS_HEADER)
    for j in trace.jobs:
        writer.writerow(
            [j.node, j.phase, f"{j.submit_s:.3f}", f"{j.start_s:.3f}", f"{j.end_s:.3f}"]
        )
    return batch_buf.getvalue(), jobs_buf.getvalue()

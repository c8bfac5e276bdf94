"""Tests for repro.core.traces."""

import pytest

from repro.core.traces import (
    BatchTrace,
    JobTrace,
    export_traces,
    read_traces,
    render_trace_csvs,
)
from repro.errors import TraceError


def test_export_and_read_roundtrip(tmp_path, tiny_batch_result, tiny_fdw_config):
    name = tiny_fdw_config.name
    batch_csv, jobs_csv = export_traces(tiny_batch_result, name, tmp_path)
    trace = read_traces(batch_csv, jobs_csv)
    summary = tiny_batch_result.metrics.dagmans[name]
    assert trace.dagman == name
    assert trace.n_jobs == len(
        [r for r in tiny_batch_result.metrics.for_dagman(name) if r.success]
    )
    assert trace.runtime_s == pytest.approx(summary.runtime_s, abs=0.01)
    assert all(j.submit_s <= j.start_s <= j.end_s for j in trace.jobs)


def test_exported_jobs_sorted_by_submit(tmp_path, tiny_batch_result, tiny_fdw_config):
    batch_csv, jobs_csv = export_traces(tiny_batch_result, tiny_fdw_config.name, tmp_path)
    trace = read_traces(batch_csv, jobs_csv)
    submits = [j.submit_s for j in trace.jobs]
    assert submits == sorted(submits)


def test_phase_jobs_filter(tmp_path, tiny_batch_result, tiny_fdw_config):
    batch_csv, jobs_csv = export_traces(tiny_batch_result, tiny_fdw_config.name, tmp_path)
    trace = read_traces(batch_csv, jobs_csv)
    phases = {j.phase for j in trace.jobs}
    assert phases == {"A", "B", "C"}
    assert sum(j.phase == "B" for j in trace.jobs) == 1


def test_first_execute_includes_failed_attempts(tmp_path):
    """Regression: the batch header's first_execute_s was min'd over
    successful records only; when the batch's earliest EXECUTE belonged
    to a failed attempt the exported header was wrong."""
    from repro.core.submit_osg import FdwBatchResult
    from repro.osg.metrics import DagmanSummary, JobRecord, PoolMetrics

    failed = JobRecord(
        node_name="n_A_0", dagman="d", phase="A", cluster_id=1,
        submit_time=0.0, start_time=5.0, end_time=20.0, success=False,
    )
    retry = JobRecord(
        node_name="n_A_0", dagman="d", phase="A", cluster_id=2,
        submit_time=25.0, start_time=30.0, end_time=60.0, success=True,
    )
    metrics = PoolMetrics(
        records=[failed, retry],
        dagmans={"d": DagmanSummary(name="d", submit_time=0.0, end_time=60.0, n_jobs=1)},
    )
    batch_csv, jobs_csv = export_traces(FdwBatchResult(metrics=metrics), "d", tmp_path)
    trace = read_traces(batch_csv, jobs_csv)
    assert trace.first_execute_s == 5.0  # the failed attempt's EXECUTE
    assert trace.n_jobs == 1  # jobs CSV still exports successes only
    assert trace.jobs[0].start_s == 30.0


def test_export_unknown_dagman(tmp_path, tiny_batch_result):
    with pytest.raises(TraceError):
        export_traces(tiny_batch_result, "nope", tmp_path)


def test_job_trace_validation():
    with pytest.raises(TraceError):
        JobTrace(node="x", phase="A", submit_s=10.0, start_s=5.0, end_s=20.0)


def test_batch_trace_validation():
    job = JobTrace(node="x", phase="A", submit_s=0.0, start_s=1.0, end_s=2.0)
    with pytest.raises(TraceError):
        BatchTrace(dagman="d", submit_s=0.0, first_execute_s=1.0, end_s=2.0, jobs=())
    with pytest.raises(TraceError):
        BatchTrace(dagman="d", submit_s=5.0, first_execute_s=1.0, end_s=2.0, jobs=(job,))


def test_read_missing_files(tmp_path):
    with pytest.raises(TraceError):
        read_traces(tmp_path / "a.csv", tmp_path / "b.csv")


def test_read_bad_header(tmp_path):
    batch = tmp_path / "b.csv"
    jobs = tmp_path / "j.csv"
    batch.write_text("wrong,header\n1,2\n")
    jobs.write_text("node,phase,submit_s,start_s,end_s\nx,A,0,1,2\n")
    with pytest.raises(TraceError):
        read_traces(batch, jobs)


def test_read_job_count_mismatch(tmp_path):
    batch = tmp_path / "b.csv"
    jobs = tmp_path / "j.csv"
    batch.write_text("dagman,submit_s,first_execute_s,end_s,n_jobs\nd,0,1,10,2\n")
    jobs.write_text("node,phase,submit_s,start_s,end_s\nx,A,0,1,2\n")
    with pytest.raises(TraceError):
        read_traces(batch, jobs)


@pytest.mark.parametrize("row", ["d,0,1,10,one", "d,0,1,10,1.5", "d,0,1,10"])
def test_read_malformed_job_count_names_file(tmp_path, row):
    batch = tmp_path / "b.csv"
    jobs = tmp_path / "j.csv"
    batch.write_text(f"dagman,submit_s,first_execute_s,end_s,n_jobs\n{row}\n")
    jobs.write_text("node,phase,submit_s,start_s,end_s\nx,A,0,1,2\n")
    with pytest.raises(TraceError, match="b.csv"):
        read_traces(batch, jobs)


def test_read_malformed_row(tmp_path):
    batch = tmp_path / "b.csv"
    jobs = tmp_path / "j.csv"
    batch.write_text("dagman,submit_s,first_execute_s,end_s,n_jobs\nd,0,1,10,1\n")
    jobs.write_text("node,phase,submit_s,start_s,end_s\nx,A,zero,1,2\n")
    with pytest.raises(TraceError):
        read_traces(batch, jobs)


def test_render_trace_csvs_roundtrip(tmp_path):
    jobs = tuple(
        JobTrace(node=f"n{i}", phase="C", submit_s=i * 1.0, start_s=i + 1.0, end_s=i + 5.0)
        for i in range(3)
    )
    trace = BatchTrace(dagman="d", submit_s=0.0, first_execute_s=1.0, end_s=7.0, jobs=jobs)
    batch_text, jobs_text = render_trace_csvs(trace)
    b = tmp_path / "b.csv"
    j = tmp_path / "j.csv"
    b.write_text(batch_text)
    j.write_text(jobs_text)
    back = read_traces(b, j)
    assert back == trace

"""Tests for repro.core.phases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FdwConfig
from repro.core.phases import chunk_bounds, count_jobs, gf_archive_mb, plan_phases
from repro.errors import ConfigError


def all_specs(plan):
    """Every job spec of a plan in phase order."""
    dist = [plan.dist_job] if plan.dist_job is not None else []
    return [*dist, *plan.a_jobs, plan.b_job, *plan.c_jobs]


def test_chunk_bounds_exact_division():
    assert chunk_bounds(8, 4) == [(0, 4), (4, 4)]


def test_chunk_bounds_remainder():
    assert chunk_bounds(10, 4) == [(0, 4), (4, 4), (8, 2)]


def test_chunk_bounds_single():
    assert chunk_bounds(3, 10) == [(0, 3)]


def test_chunk_bounds_validation():
    with pytest.raises(ConfigError):
        chunk_bounds(0, 4)
    with pytest.raises(ConfigError):
        chunk_bounds(4, 0)


@given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=1, max_value=500))
@settings(max_examples=60, deadline=None)
def test_chunk_bounds_cover_exactly(total, chunk):
    bounds = chunk_bounds(total, chunk)
    assert sum(c for _, c in bounds) == total
    assert bounds[0][0] == 0
    for (s1, c1), (s2, _) in zip(bounds, bounds[1:]):
        assert s1 + c1 == s2
    assert all(1 <= c <= chunk for _, c in bounds)


def test_paper_job_count_16000():
    # 16,000 waveforms with default chunking: 1000 A + 1 B + 8000 C =
    # 9001 jobs (matches the ~9000 implied by the paper's Fig 3 numbers).
    plan = plan_phases(FdwConfig(n_waveforms=16000))
    assert len(plan.a_jobs) == 1000
    assert len(plan.c_jobs) == 8000
    assert plan.n_jobs == 9001
    assert plan.dist_job is None  # recycled by default


def test_bootstrap_job_when_not_recycled():
    plan = plan_phases(FdwConfig(n_waveforms=64, recycle_distances=False))
    assert plan.dist_job is not None
    assert plan.dist_job.payload.phase == "dist"
    assert plan.n_jobs == len(plan.a_jobs) + len(plan.c_jobs) + 2


@given(
    recycle=st.booleans(),
    chunk_a=st.integers(min_value=1, max_value=40),
    chunk_c=st.integers(min_value=1, max_value=40),
    n_waveforms=st.integers(min_value=1, max_value=300),
)
@settings(max_examples=80, deadline=None)
def test_count_jobs_matches_the_plan(recycle, chunk_a, chunk_c, n_waveforms):
    config = FdwConfig(
        n_waveforms=n_waveforms,
        chunk_a=chunk_a,
        chunk_c=chunk_c,
        recycle_distances=recycle,
    )
    plan = plan_phases(config)
    assert count_jobs(config) == len(all_specs(plan)) == plan.n_jobs


def test_payloads_carry_station_count():
    plan = plan_phases(FdwConfig(n_waveforms=32, n_stations=2))
    assert all(j.payload.n_stations == 2 for j in plan.a_jobs)
    assert plan.b_job.payload.n_stations == 2
    assert all(j.payload.n_stations == 2 for j in plan.c_jobs)


def test_last_chunks_may_be_short():
    plan = plan_phases(FdwConfig(n_waveforms=18, chunk_a=16, chunk_c=4))
    assert [j.payload.n_items for j in plan.a_jobs] == [16, 2]
    assert [j.payload.n_items for j in plan.c_jobs] == [4, 4, 4, 4, 2]


def test_chunks_of_one_size_share_a_payload():
    """The runtime model computes a payload's mean once per payload
    object, so equal chunks share one."""
    plan = plan_phases(FdwConfig(n_waveforms=18, chunk_a=4, chunk_c=4))
    for jobs in (plan.a_jobs, plan.c_jobs):
        assert len({id(j.payload) for j in jobs}) == 2  # four full chunks, one short
        assert jobs[0].payload is jobs[3].payload and jobs[3].payload != jobs[4].payload


def test_gf_archive_size_full_input_near_paper():
    # 121 stations x 450 subfaults: should land in the >0.5 GB class the
    # paper stages via Stash Cache.
    mb = gf_archive_mb(FdwConfig(n_waveforms=1024, n_stations=121))
    assert 500.0 < mb < 2000.0


def test_gf_archive_scales_with_stations():
    full = gf_archive_mb(FdwConfig(n_stations=121))
    small = gf_archive_mb(FdwConfig(n_stations=2))
    assert full / small == pytest.approx(121 / 2)


def test_c_jobs_stage_the_archive():
    config = FdwConfig(n_waveforms=8, name="w")
    plan = plan_phases(config)
    for job in plan.c_jobs:
        assert "w_gf.mseed.npz" in job.input_files
        assert job.input_files["w_gf.mseed.npz"] == pytest.approx(gf_archive_mb(config))


def test_a_jobs_stage_distance_matrices():
    plan = plan_phases(FdwConfig(n_waveforms=8, name="w"))
    for job in plan.a_jobs:
        assert "w_distances_strike.npy" in job.input_files
        assert "w_distances_dip.npy" in job.input_files


def test_all_specs_order():
    plan = plan_phases(FdwConfig(n_waveforms=8, recycle_distances=False, name="w"))
    specs = all_specs(plan)
    assert specs[0].payload.phase == "dist"
    assert specs[1].payload.phase == "A"
    assert specs[-1].payload.phase == "C"
    assert len(specs) == plan.n_jobs


def test_requests_match_paper_resources():
    plan = plan_phases(FdwConfig(n_waveforms=8))
    # "4 CPU cores ... up to 16GB" (paper section 3).
    assert all(j.request_cpus == 4 for j in all_specs(plan))
    assert plan.b_job.request_memory_mb == 16384


def test_gf_product_id_names_the_c_job_input():
    from repro.core.phases import gf_product_id

    config = FdwConfig(n_waveforms=8, n_stations=4, mesh=(8, 5), name="w")
    assert gf_product_id(config) == "w_gf.mseed.npz"
    plan = plan_phases(config)
    for job in plan.c_jobs:
        assert gf_product_id(config) in job.input_files

"""Tests for repro.bursting.simulator."""

import numpy as np
import pytest

from repro.bursting.cloud import CloudJobModel
from repro.bursting.policies import (
    LowThroughputPolicy,
    QueueTimePolicy,
    SubmissionGapPolicy,
)
from repro.bursting.simulator import BurstingSimulator, _ReplayState
from repro.core.traces import BatchTrace, JobTrace
from repro.errors import PolicyError, TraceError
from tests.oracles.bursting_per_second import PerSecondSimulator


def synthetic_trace(n_jobs=40, exec_s=300.0, stagger_s=60.0, phase="C"):
    """Jobs submitted every `stagger_s`, each executing `exec_s` after a
    60 s queue wait — a clean, fully controlled replay input."""
    jobs = []
    for i in range(n_jobs):
        submit = i * stagger_s
        start = submit + 60.0
        jobs.append(
            JobTrace(
                node=f"j{i:03d}",
                phase=phase,
                submit_s=submit,
                start_s=start,
                end_s=start + exec_s,
            )
        )
    end = max(j.end_s for j in jobs)
    return BatchTrace(dagman="synth", submit_s=0.0, first_execute_s=60.0, end_s=end, jobs=jobs)


def test_control_reproduces_original_runtime():
    trace = synthetic_trace()
    result = BurstingSimulator(trace, policies=[]).run()
    assert result.runtime_s == pytest.approx(trace.runtime_s, abs=1.0)
    assert result.n_bursted == 0
    assert result.cost_usd == 0.0
    assert result.vdc_usage_percent == 0.0


def test_control_throughput_series_matches_eq5():
    trace = synthetic_trace(n_jobs=5, stagger_s=10.0, exec_s=100.0)
    result = BurstingSimulator(trace, policies=[]).run()
    series = result.throughput_series_jpm
    # First completion at t=160: before that, omega == 0.
    assert np.all(series[:159] == 0.0)
    # At t=160 s: 1 job / (160/60) min.
    assert series[159] == pytest.approx(1.0 / (160.0 / 60.0))
    assert len(series) == int(result.runtime_s)


def test_advance_to_zero_raises_trace_error():
    """Regression: advance_to(0) divided by zero computing instant
    throughput; it must raise TraceError instead."""
    state = _ReplayState(synthetic_trace(n_jobs=3), CloudJobModel())
    with pytest.raises(TraceError, match="now > 0"):
        state.advance_to(0.0)
    with pytest.raises(TraceError):
        state.advance_to(-1.0)
    state.advance_to(1.0)  # the run loop's first second is valid
    assert state.now_s == 1.0


def test_queue_policy_bursts_waiting_jobs():
    # One job stuck in the queue for hours.
    jobs = [
        JobTrace(node="fast", phase="C", submit_s=0.0, start_s=10.0, end_s=100.0),
        JobTrace(node="stuck", phase="C", submit_s=0.0, start_s=20000.0, end_s=20100.0),
    ]
    trace = BatchTrace(dagman="d", submit_s=0.0, first_execute_s=10.0, end_s=20100.0, jobs=jobs)
    result = BurstingSimulator(trace, policies=[QueueTimePolicy(max_queue_s=600.0)]).run()
    assert result.n_bursted == 1
    assert result.bursts_by_policy["policy2"] == 1
    # The stuck job completes on VDC at ~601+144 instead of 20100.
    assert result.runtime_s < 1000.0
    assert result.runtime_reduction_percent > 90.0


def test_tail_burst_shortens_makespan():
    # Steady-state omega approaches 0.5 from below; a 0.45 threshold
    # arms late in the run and every inter-completion dip then bursts a
    # tail job.
    trace = synthetic_trace(n_jobs=30, stagger_s=120.0, exec_s=200.0)
    policy = LowThroughputPolicy(probe_s=1.0, threshold_jpm=0.45)
    result = BurstingSimulator(trace, policies=[policy]).run()
    assert result.n_bursted > 0
    assert result.runtime_s < trace.runtime_s


def test_faster_probe_bursts_more():
    usages = []
    for probe in (1.0, 30.0, 120.0):
        # omega asymptotes toward 1.0; a 0.8 threshold arms mid-run.
        trace = synthetic_trace(n_jobs=60, stagger_s=60.0, exec_s=400.0)
        policy = LowThroughputPolicy(probe_s=probe, threshold_jpm=0.8)
        result = BurstingSimulator(trace, policies=[policy]).run()
        usages.append(result.vdc_usage_percent)
    assert usages[0] >= usages[1] >= usages[2]
    assert usages[0] > usages[2]


def test_burst_fraction_cap_enforced():
    trace = synthetic_trace(n_jobs=50, stagger_s=60.0, exec_s=400.0)
    policy = LowThroughputPolicy(probe_s=1.0, threshold_jpm=100.0)
    policy._armed = True  # force aggressive bursting
    result = BurstingSimulator(trace, policies=[policy], max_burst_fraction=0.3).run()
    assert result.n_bursted <= int(0.3 * 50)
    assert result.vdc_usage_percent <= 30.0


def test_non_burstable_phases_stay_on_osg():
    jobs = [
        JobTrace(node="b", phase="B", submit_s=0.0, start_s=10.0, end_s=5000.0),
        JobTrace(node="c", phase="C", submit_s=0.0, start_s=5000.0, end_s=5200.0),
    ]
    trace = BatchTrace(dagman="d", submit_s=0.0, first_execute_s=10.0, end_s=5200.0, jobs=jobs)
    policy = QueueTimePolicy(max_queue_s=60.0)
    result = BurstingSimulator(trace, policies=[policy]).run()
    # Only the C job is burstable; B runs to completion on OSG.
    assert result.n_bursted <= 1
    assert result.runtime_s >= 5000.0


def test_cost_accounts_cloud_seconds():
    trace = synthetic_trace(n_jobs=20, stagger_s=300.0, exec_s=600.0)
    policy = LowThroughputPolicy(probe_s=1.0, threshold_jpm=0.15)
    result = BurstingSimulator(trace, policies=[policy]).run()
    assert result.n_bursted > 0
    assert result.cloud_seconds == pytest.approx(result.n_bursted * 144.0)
    assert result.cost_usd == pytest.approx(result.cloud_seconds / 60.0 * 0.0017)


def test_rupture_jobs_use_287s():
    trace = synthetic_trace(n_jobs=20, stagger_s=300.0, exec_s=600.0, phase="A")
    policy = LowThroughputPolicy(probe_s=1.0, threshold_jpm=0.15)
    result = BurstingSimulator(trace, policies=[policy]).run()
    assert result.n_bursted > 0
    assert result.cloud_seconds == pytest.approx(result.n_bursted * 287.0)


def test_all_policies_compose():
    trace = synthetic_trace(n_jobs=40, stagger_s=90.0, exec_s=500.0)
    result = BurstingSimulator(
        trace,
        policies=[
            LowThroughputPolicy(probe_s=5.0, threshold_jpm=1.0),
            QueueTimePolicy(max_queue_s=30.0),
            SubmissionGapPolicy(max_gap_s=30.0, probe_s=10.0),
        ],
    ).run()
    assert set(result.bursts_by_policy) == {"policy1", "policy2", "policy3"}
    assert result.n_bursted == sum(result.bursts_by_policy.values())
    assert result.n_bursted <= trace.n_jobs


def test_duplicate_policy_names_rejected():
    trace = synthetic_trace(n_jobs=3)
    with pytest.raises(PolicyError):
        BurstingSimulator(
            trace,
            policies=[LowThroughputPolicy(), LowThroughputPolicy()],
        )


def test_bad_burst_fraction_rejected():
    trace = synthetic_trace(n_jobs=3)
    with pytest.raises(PolicyError):
        BurstingSimulator(trace, max_burst_fraction=1.5)


def test_average_instant_throughput_increases_with_bursting():
    trace = synthetic_trace(n_jobs=60, stagger_s=60.0, exec_s=400.0)
    control = BurstingSimulator(trace, policies=[]).run()
    bursty = BurstingSimulator(
        trace, policies=[LowThroughputPolicy(probe_s=1.0, threshold_jpm=1.2)]
    ).run()
    assert (
        bursty.average_instant_throughput_jpm
        >= control.average_instant_throughput_jpm
    )


def test_custom_cloud_model():
    trace = synthetic_trace(n_jobs=20, stagger_s=300.0, exec_s=600.0)
    cloud = CloudJobModel(waveform_seconds=10.0, usd_per_minute=1.0)
    policy = LowThroughputPolicy(probe_s=1.0, threshold_jpm=0.15)
    result = BurstingSimulator(trace, policies=[policy], cloud=cloud).run()
    assert result.n_bursted > 0
    assert result.cloud_seconds == pytest.approx(result.n_bursted * 10.0)
    assert result.cost_usd == pytest.approx(result.cloud_seconds / 60.0)


# -- event-driven replay regression ------------------------------------------


def _result_fields(result):
    return (
        result.batch,
        result.runtime_s,
        result.original_runtime_s,
        result.n_jobs,
        result.n_bursted,
        result.bursts_by_policy,
        result.cloud_seconds,
        result.cost_usd,
    )


@pytest.mark.parametrize(
    "make_policies,cap",
    [
        (lambda: [], None),
        (lambda: [QueueTimePolicy(max_queue_s=120.0)], None),
        (
            lambda: [
                LowThroughputPolicy(),
                QueueTimePolicy(max_queue_s=120.0),
                SubmissionGapPolicy(),
            ],
            0.3,
        ),
    ],
    ids=["control", "queue", "all-capped"],
)
def test_event_driven_bit_identical_to_per_second(make_policies, cap):
    """The event-driven loop must reproduce the per-second reference
    loop exactly — including every float of the throughput series.
    Policies are stateful, so each arm gets fresh instances."""
    trace = synthetic_trace(n_jobs=25, exec_s=130.5, stagger_s=17.0)
    reference = PerSecondSimulator(
        trace, policies=make_policies(), max_burst_fraction=cap
    ).run()
    fast = BurstingSimulator(
        trace, policies=make_policies(), max_burst_fraction=cap
    ).run()
    assert _result_fields(fast) == _result_fields(reference)
    assert len(fast.throughput_series_jpm) == len(reference.throughput_series_jpm)
    assert np.array_equal(
        fast.throughput_series_jpm, reference.throughput_series_jpm
    )


def test_event_driven_bit_identical_when_bursting_fires():
    """A trace with stuck jobs actually bursts; skip-ahead must engage
    only after the cap is reached and stay bit-identical."""
    jobs = [JobTrace(node="fast", phase="C", submit_s=0.0, start_s=10.0, end_s=100.0)]
    for i in range(8):
        jobs.append(
            JobTrace(
                node=f"stuck{i}",
                phase="C",
                submit_s=5.0 + i,
                start_s=7000.0,
                end_s=7400.0 + 10 * i,
            )
        )
    trace = BatchTrace(
        dagman="stuck", submit_s=0.0, first_execute_s=10.0, end_s=7480.0, jobs=jobs
    )
    for cap in (None, 0.25):
        reference = PerSecondSimulator(
            trace,
            policies=[QueueTimePolicy(max_queue_s=600.0)],
            max_burst_fraction=cap,
        ).run()
        fast = BurstingSimulator(
            trace,
            policies=[QueueTimePolicy(max_queue_s=600.0)],
            max_burst_fraction=cap,
        ).run()
        assert _result_fields(fast) == _result_fields(reference)
        assert np.array_equal(
            fast.throughput_series_jpm, reference.throughput_series_jpm
        )
        if cap is None:
            assert fast.n_bursted == 8  # the scenario really bursts

"""Figure 4: per-job timings, instant throughput and running jobs.

Reproduces the per-workflow views of §5.2.3/§5.2.4 for 1/2/4/8
concurrent DAGMans: sorted job execution and wait time curves, the
per-second instant-throughput series (eq. 5), and the running-job count
series.

Paper anchors: full-input waveform jobs execute 15-20 min; rupture jobs
~2.5 min; average waveform wait 70.1 min with one DAGMan vs 189.2 min
with four; single-DAGMan instant-throughput peaks >35 JPM vs rarely >6
with four; running-job peaks exceed 400 at every concurrency.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import bench_scale, header, scaled
from repro.core.figures import CONCURRENCY, TOTAL_WAVEFORMS, fig4_run
from repro.units import to_minutes


def _quantiles(values_s: np.ndarray) -> str:
    if values_s.size == 0:
        return "(none)"
    q = np.percentile(values_s / 60.0, [10, 50, 90])
    return f"p10 {q[0]:6.1f}  p50 {q[1]:6.1f}  p90 {q[2]:6.1f} min"


def _run_all() -> dict[int, dict[str, object]]:
    out: dict[int, dict[str, object]] = {}
    for k in CONCURRENCY:
        result = fig4_run(k, scaled(TOTAL_WAVEFORMS))
        metrics = result.metrics
        out[k] = {
            "exec_C": metrics.exec_times_s(phase="C"),
            "exec_A": metrics.exec_times_s(phase="A"),
            "wait_C": metrics.wait_times_s(phase="C"),
            "omega": metrics.instant_throughput_jpm(result.dagman_names[0]),
            "running": metrics.running_jobs(),  # across the whole batch
        }
    return out


@pytest.mark.benchmark(group="fig4")
def test_fig4_job_timelines(benchmark):
    data = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    header(
        "Fig 4 - job execution/wait distributions and per-second series",
        f"{'dagmans':>8}  {'series':<12} {'summary'}",
    )
    for k in CONCURRENCY:
        d = data[k]
        print(f"{k:>8}  exec A      {_quantiles(d['exec_A'])}")
        print(f"{'':>8}  exec C      {_quantiles(d['exec_C'])}")
        print(f"{'':>8}  wait C      {_quantiles(d['wait_C'])}  "
              f"(mean {to_minutes(float(np.mean(d['wait_C']))):6.1f} min)")
        omega = d["omega"]
        running = d["running"]
        print(
            f"{'':>8}  omega       peak {float(omega.max()):6.1f} JPM, "
            f"mean {float(omega.mean()):5.1f} JPM over {omega.size} s"
        )
        print(
            f"{'':>8}  running     peak {int(running.max()):4d} jobs, "
            f"mean {float(running.mean()):6.1f}"
        )

    # Paper 5.2.3: execution times consistent across concurrency levels;
    # full-input waveform jobs 15-20 min, rupture jobs ~2.5 min.
    for k in CONCURRENCY:
        c_med = np.median(data[k]["exec_C"]) / 60.0
        a_med = np.median(data[k]["exec_A"]) / 60.0
        assert 10.0 < c_med < 25.0
        assert 1.5 < a_med < 4.5
    # The queueing-shape assertions need the paper's workload scale —
    # at reduced FDW_BENCH_SCALE the queues drain instantly.
    if bench_scale() == 1.0:
        # Paper: wait times inflate with concurrency (70 -> 189 min at 4).
        assert np.mean(data[4]["wait_C"]) > 1.5 * np.mean(data[1]["wait_C"])
        # Paper: single-DAGMan instant-throughput peaks far exceed the
        # per-DAGMan peaks at higher concurrency.
        assert data[1]["omega"].max() > 2.0 * data[4]["omega"].max()
        # Paper: running jobs peak above 400 at batch level.
        assert data[1]["running"].max() > 300

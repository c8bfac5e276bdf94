"""Headline claims: FDW vs a single machine, and throughput scaling.

Reproduces the numbers quoted in §1/§6:

* "a 56.8% decrease in runtime when simulating 1,024 earthquakes in
  Chile using parallel computation on OSG versus on a single machine";
* "throughput ... increases by approximately five times when running
  50,000 simulations compared to 1,024";
* "in contrast to their over-20-day generation of 36,800 waveforms
  [Lin et al.], we produced, on average, 24,960 in 12.5 hours and
  50,000 in under 35 hours".

The single-machine control sums the calibrated per-job costs of the
identical workload executed back-to-back — the role the paper's AWS
instance plays.
"""

from __future__ import annotations

import pytest

from _common import FULL_INPUT, bench_scale, fdw_config, header, scaled
from repro.core.figures import single_dagman_runs
from repro.core.local import estimate_sequential_runtime_s
from repro.units import to_hours

PAPER_REDUCTION_PERCENT = 56.8
PAPER_THROUGHPUT_RATIO = 5.0


@pytest.mark.benchmark(group="headline")
def test_single_machine_vs_osg(benchmark):
    # Always the paper's 1,024 waveforms: scaled down, the pool's fixed
    # per-DAG costs outweigh the linear single-host estimate.
    def run():
        osg = single_dagman_runs(1024, FULL_INPUT, "headline_1024")
        single = estimate_sequential_runtime_s(fdw_config(1024, FULL_INPUT, "sm"))
        return osg.average_total_runtime_s(), single

    osg_runtime, single = benchmark.pedantic(run, rounds=1, iterations=1)
    reduction = 100.0 * (1.0 - osg_runtime / single)
    header(
        "Headline - 1,024 full-input waveforms: OSG vs single machine",
        f"{'target':<16} {'hours':>8}",
    )
    print(f"{'single machine':<16} {to_hours(single):8.1f}")
    print(f"{'FDW on OSG':<16} {to_hours(osg_runtime):8.1f}")
    print(f"runtime reduction: {reduction:.1f}%  (paper: {PAPER_REDUCTION_PERCENT}%)")

    # The paper reports a >50% reduction; parallel execution must win
    # decisively (we accept anything in the 40-99% band as same-shape).
    assert reduction > 40.0


@pytest.mark.benchmark(group="headline")
def test_throughput_scales_5x(benchmark):
    def run():
        small = single_dagman_runs(scaled(1024), FULL_INPUT, "headline_tp_1024")
        big = single_dagman_runs(scaled(50000), FULL_INPUT, "headline_tp_50000")
        return small.average_total_throughput_jpm(), big.average_total_throughput_jpm()

    small_beta, big_beta = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = big_beta / small_beta
    header(
        "Headline - throughput at 50,000 vs 1,024 waveforms (full input)",
        f"{'quantity':>10} {'jpm':>8}",
    )
    print(f"{1024:>10} {small_beta:8.2f}")
    print(f"{50000:>10} {big_beta:8.2f}")
    print(f"ratio: {ratio:.1f}x  (paper: ~{PAPER_THROUGHPUT_RATIO}x)")
    assert ratio > 3.0


@pytest.mark.benchmark(group="headline")
def test_catalog_generation_beats_lin_et_al(benchmark):
    def run():
        mid = single_dagman_runs(scaled(24960), FULL_INPUT, "headline_24960")
        big = single_dagman_runs(scaled(50000), FULL_INPUT, "headline_50000")
        return mid.average_total_runtime_s(), big.average_total_runtime_s()

    r24960, r50000 = benchmark.pedantic(run, rounds=1, iterations=1)
    header(
        "Headline - large catalogs vs Lin et al.'s 20+ days for 36,800",
        f"{'quantity':>10} {'hours':>8} {'paper':>10}",
    )
    print(f"{24960:>10} {to_hours(r24960):8.1f} {'12.5 h':>10}")
    print(f"{50000:>10} {to_hours(r50000):8.1f} {'<35 h':>10}")
    # Shape: both complete in hours (not days), and 50k > 24,960.
    if bench_scale() == 1.0:
        assert to_hours(r24960) < 24.0
        assert to_hours(r50000) < 48.0
    assert r50000 > r24960

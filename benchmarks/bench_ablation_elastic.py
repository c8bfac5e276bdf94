"""Ablation: elastic bursting vs the paper's fixed policies.

The paper's §6 outlook asks for an elastic algorithm that scales VDC
usage to OSG conditions. This bench pits :class:`ElasticPolicy` against
Policy 1 at its most aggressive probe (1 s) on a traced batch, under the
30% cost cap: the elastic policy should achieve a comparable runtime
reduction while consuming *fewer* cloud dollars, because it stands down
whenever OSG keeps up.
"""

from __future__ import annotations

import pytest

from _common import bench_scale, header, scaled
from repro.bursting import BurstingSimulator, ElasticPolicy, LowThroughputPolicy
from repro.core.figures import TOTAL_WAVEFORMS, fig5_trace, policy1_threshold

MAX_BURST_FRACTION = 0.30


@pytest.mark.benchmark(group="ablation")
def test_ablation_elastic_policy(benchmark):
    trace = fig5_trace(1, scaled(TOTAL_WAVEFORMS))

    def run():
        control = BurstingSimulator(trace, policies=[]).run()
        threshold = policy1_threshold(control, bench_scale())
        fixed = BurstingSimulator(
            trace,
            policies=[LowThroughputPolicy(probe_s=1.0, threshold_jpm=threshold)],
            max_burst_fraction=MAX_BURST_FRACTION,
        ).run()
        elastic = BurstingSimulator(
            trace,
            policies=[ElasticPolicy(target_jpm=threshold, smoothing=0.2)],
            max_burst_fraction=MAX_BURST_FRACTION,
        ).run()
        return control, fixed, elastic

    control, fixed, elastic = benchmark.pedantic(run, rounds=1, iterations=1)
    header(
        "Ablation - elastic vs fixed Policy 1 (30% cap, Batch 1 trace)",
        f"{'policy':<12} {'ait_jpm':>8} {'vdc_%':>7} {'cost_$':>8} "
        f"{'runtime_h':>10} {'reduction_%':>12}",
    )
    for label, r in (("control", control), ("policy1@1s", fixed), ("elastic", elastic)):
        print(
            f"{label:<12} {r.average_instant_throughput_jpm:8.1f} "
            f"{r.vdc_usage_percent:7.1f} {r.cost_usd:8.2f} "
            f"{r.runtime_s / 3600:10.2f} {r.runtime_reduction_percent:12.1f}"
        )

    # Both policies must beat the control; elastic must not spend more
    # than the fixed fast probe.
    assert fixed.runtime_s <= control.runtime_s
    assert elastic.runtime_s <= control.runtime_s
    assert elastic.cost_usd <= fixed.cost_usd + 1e-9
    assert elastic.n_bursted > 0

"""Figure 5: VDC bursting — average instant throughput and VDC usage.

Reproduces §4.3/§5.3.1-5.3.2: two real 16,000-waveform DAGMan batches
are traced, then replayed under Policy 1 probe times {1, 2, 5, 10, 30,
60, 120} s against a 34 jobs/minute threshold, combined with Policy 2
maximum queue times {90, 120} minutes; controls replay with no policy.

Paper anchors: control AIT 14.1 (Batch 1) / 8.6 (Batch 2) JPM; maxima
31.7 / 32.4 JPM at 1 s probe with 90 min queue cap; VDC usage 19.1-52.8%
(B1) and 22.9-85.6% (B2), driven by the probe time, with the shorter
queue cap adding slightly more bursts but <1 JPM of AIT.
"""

from __future__ import annotations

import pytest

from _common import bench_scale, header, scaled
from repro.core.figures import (
    PROBES_S,
    QUEUE_CAPS_MIN,
    THRESHOLD_JPM,
    TOTAL_WAVEFORMS,
    fig5_trace,
    policy_sweep,
)

PAPER_CONTROL_AIT = {1: 14.1, 2: 8.6}
PAPER_MAX_AIT = {1: 31.7, 2: 32.4}


@pytest.mark.benchmark(group="fig5")
@pytest.mark.parametrize("batch_id", [1, 2])
def test_fig5_bursting_policies(benchmark, batch_id):
    trace = fig5_trace(batch_id, scaled(TOTAL_WAVEFORMS))
    control, results = benchmark.pedantic(
        lambda: policy_sweep(trace, scale=bench_scale()), rounds=1, iterations=1
    )

    header(
        f"Fig 5 - Batch {batch_id}: AIT and VDC usage vs probe time "
        f"(threshold {THRESHOLD_JPM} JPM)",
        f"{'queue_min':>9} {'probe_s':>8} {'ait_jpm':>8} {'vdc_%':>7} "
        f"{'runtime_h':>10}",
    )
    print(
        f"{'control':>9} {'-':>8} {control.average_instant_throughput_jpm:8.1f} "
        f"{control.vdc_usage_percent:7.1f} {control.runtime_s / 3600:10.2f}"
        f"   (paper control AIT {PAPER_CONTROL_AIT[batch_id]} JPM)"
    )
    for (queue_min, probe), r in results.items():
        print(
            f"{queue_min:>9} {probe:>8} "
            f"{r.average_instant_throughput_jpm:8.1f} "
            f"{r.vdc_usage_percent:7.1f} {r.runtime_s / 3600:10.2f}"
        )
    print(f"(paper max AIT for batch {batch_id}: {PAPER_MAX_AIT[batch_id]} JPM at 1 s/90 min)")

    # Shape: every policy combination improves AIT over the control.
    for r in results.values():
        assert (
            r.average_instant_throughput_jpm
            >= control.average_instant_throughput_jpm - 1e-9
        )
    # Shape: faster probing -> more VDC usage and higher AIT (paper
    # 5.3.2: "when the probe time shortens ... higher VDC utilization").
    for queue_min in QUEUE_CAPS_MIN:
        usages = [results[(queue_min, p)].vdc_usage_percent for p in PROBES_S]
        assert usages[0] >= usages[-1]
        aits = [
            results[(queue_min, p)].average_instant_throughput_jpm
            for p in PROBES_S
        ]
        assert aits[0] >= aits[-1] - 1e-9
    # Shape: queue-cap choice matters far less than probe time (paper:
    # never more than ~1 JPM of AIT between 90 and 120 min).
    for probe in PROBES_S:
        delta = abs(
            results[(90, probe)].average_instant_throughput_jpm
            - results[(120, probe)].average_instant_throughput_jpm
        )
        assert delta < 5.0

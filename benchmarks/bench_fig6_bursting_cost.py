"""Figure 6: simulated bursting cost and throughput-over-time overlays.

Reproduces §5.3.3-5.3.4: the same two traced batches replayed with the
paper's 30% bursted-job cap, reporting the cost (eq. 7 at $0.0017 per
cloud minute), runtime reductions, and the instant-throughput series of
control vs bursted runs.

Paper anchors: cost up to $11 (Batch 1) and $13.9 (Batch 2) with <=30%
of jobs bursted; Batch 1 best case 38.7% runtime reduction; Batch 2
nearly flat runtime once the burst cap binds.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import bench_scale, header, scaled
from repro.core.figures import QUEUE_CAPS_MIN, TOTAL_WAVEFORMS, fig5_trace, policy_sweep

PROBES = (1, 10, 60)
MAX_BURST_FRACTION = 0.30

PAPER_MAX_COST = {1: 11.0, 2: 13.9}


@pytest.mark.benchmark(group="fig6")
@pytest.mark.parametrize("batch_id", [1, 2])
def test_fig6_bursting_cost(benchmark, batch_id):
    trace = fig5_trace(batch_id, scaled(TOTAL_WAVEFORMS))

    def sweep():
        return policy_sweep(trace, PROBES, QUEUE_CAPS_MIN, bench_scale(), MAX_BURST_FRACTION)

    control, results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    header(
        f"Fig 6 - Batch {batch_id}: cost and runtime with <=30% bursted",
        f"{'queue_min':>9} {'probe_s':>8} {'bursted_%':>10} {'cost_$':>8} "
        f"{'runtime_h':>10} {'reduction_%':>12}",
    )
    print(
        f"{'control':>9} {'-':>8} {0.0:10.1f} {0.0:8.2f} "
        f"{control.runtime_s / 3600:10.2f} {0.0:12.1f}"
    )
    for (queue_min, probe), r in results.items():
        print(
            f"{queue_min:>9} {probe:>8} {r.vdc_usage_percent:10.1f} "
            f"{r.cost_usd:8.2f} {r.runtime_s / 3600:10.2f} "
            f"{r.runtime_reduction_percent:12.1f}"
        )
    print(f"(paper max cost for batch {batch_id}: ${PAPER_MAX_COST[batch_id]})")

    # Throughput-over-time overlay (right panel of Fig 6): report the
    # series means for control vs the most aggressive bursting.
    aggressive = results[(90, 1)]
    print(
        f"omega-over-time: control mean "
        f"{float(np.mean(control.throughput_series_jpm)):.1f} JPM, "
        f"bursted mean {float(np.mean(aggressive.throughput_series_jpm)):.1f} JPM"
    )

    # Invariants: the cap held everywhere, costs stay in the paper's
    # order of magnitude (dollars, not hundreds), runtime never regresses.
    for r in results.values():
        assert r.vdc_usage_percent <= MAX_BURST_FRACTION * 100.0 + 1e-9
        assert r.cost_usd < 100.0
        assert r.runtime_s <= control.runtime_s + 1.0
    # The aggressive setting must actually burst and reduce runtime.
    assert aggressive.n_bursted > 0
    assert aggressive.runtime_reduction_percent > 0.0

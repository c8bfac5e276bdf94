"""Figure 2: increasing earthquake simulation quantities.

Reproduces the paper's §4.1/§5.1 experiment: FDW runs at six waveform
quantities {1,024, 2,000, 5,120, 10,000, 24,960, 50,000}, each with the
small (2-station) and full (121-station) Chilean input, three DAGMans
per point; reports average total runtime (eq. 1) and average total
throughput (eq. 2) with standard deviations.

Paper values for comparison:
  small input: runtime 0.8 h -> 2.7 h; throughput 14.6 -> 185 JPM
  full input:  runtime 3.3 h (2,000) -> 34.8 h; throughput 3.3 -> 18.8
               JPM with a dip to 16.6 at 50,000
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import bench_scale, fmt_hours, header
from repro.core.figures import FIG2_QUANTITIES as QUANTITIES, INPUTS, fig2_point
from repro.units import to_hours

#: Paper-reported (runtime hours, throughput JPM) anchors, where stated.
PAPER = {
    ("small", 1024): (0.8, 14.6),
    ("small", 50000): (2.7, 185.0),
    ("full", 2000): (3.3, None),
    ("full", 1024): (None, 3.3),
    ("full", 24960): (12.5, 18.8),
    ("full", 50000): (34.8, 16.6),
}


def _sweep(label: str) -> dict[int, tuple[float, float, float, float]]:
    """Per quantity: eq. (1) runtime (s), its SD (h), eq. (2) JPM, its SD."""
    out = {}
    for quantity in QUANTITIES:
        runs = fig2_point(label, quantity, bench_scale())
        out[quantity] = (
            runs.average_total_runtime_s(),
            runs.runtime_summary_h().sd,
            runs.average_total_throughput_jpm(),
            runs.throughput_summary_jpm().sd,
        )
    return out


def _report(label: str, rows: dict) -> None:
    header(
        f"Fig 2 - {label} Chilean input ({INPUTS[label]} stations)",
        f"{'waveforms':>10} {'runtime_h':>10} {'sd_h':>7} {'jpm':>8} "
        f"{'sd_jpm':>7} {'paper_h':>8} {'paper_jpm':>10}",
    )
    for quantity in QUANTITIES:
        alpha, sd_h, beta, sd_jpm = rows[quantity]
        paper_h, paper_jpm = PAPER.get((label, quantity), (None, None))
        print(
            f"{quantity:>10} {fmt_hours(alpha):>10} {sd_h:7.2f} {beta:8.1f} "
            f"{sd_jpm:7.2f} "
            f"{paper_h if paper_h is not None else '-':>8} "
            f"{paper_jpm if paper_jpm is not None else '-':>10}"
        )


@pytest.mark.benchmark(group="fig2")
def test_fig2_small_input(benchmark):
    rows = benchmark.pedantic(lambda: _sweep("small"), rounds=1, iterations=1)
    _report("small", rows)
    # Shape assertions (paper 5.1.2: small-input throughput rose
    # 1,165.5% from 1,024 to 50,000): throughput grows severalfold with
    # quantity while runtime grows far slower than the 49x workload.
    assert rows[50000][2] > 3 * rows[1024][2]
    assert to_hours(rows[50000][0]) < 12 * to_hours(rows[1024][0])


@pytest.mark.benchmark(group="fig2")
def test_fig2_full_input(benchmark):
    rows = benchmark.pedantic(lambda: _sweep("full"), rounds=1, iterations=1)
    _report("full", rows)
    runtimes_h = {q: to_hours(rows[q][0]) for q in QUANTITIES}
    throughputs = {q: rows[q][2] for q in QUANTITIES}
    # Shape: runtime increases with quantity but sub-proportionally
    # until the largest point (paper: 178% step 24,960 -> 50,000).
    assert runtimes_h[50000] > runtimes_h[2000]
    assert runtimes_h[50000] / runtimes_h[2000] < 50000 / 2000
    # Shape: throughput rises from the smallest to the mid quantities.
    assert throughputs[24960] > 2 * throughputs[1024]
    # Full input is far slower than small input would be (seen in the
    # small benchmark); here just sanity-check the magnitudes.
    assert throughputs[1024] < 10.0
    assert np.isfinite(list(throughputs.values())).all()

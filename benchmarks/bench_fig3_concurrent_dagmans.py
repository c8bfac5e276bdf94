"""Figure 3: concurrent HTCondor DAGMans.

Reproduces §4.2/§5.2: 16,000 waveforms (full Chilean input) produced by
1, 2, 4, or 8 simultaneously launched DAGMans, three batches per
concurrency level; reports per-DAGMan average total runtime (eq. 3) and
average total throughput (eq. 4).

Paper values: throughput 10.7 / 6.5 / 3.7 / 2.2 JPM for 1/2/4/8
DAGMans (a >=39.5% drop per doubling; 381.3% single-vs-eight); runtime
14.1 (SD 1.3) / 11.9 (SD 1.8) / 12.5 (SD 7) / 15.7 (SD 12) hours — i.e.
partitioning does NOT reduce runtime, and SDs grow with concurrency.
"""

from __future__ import annotations

import pytest

from _common import header, scaled
from repro.core.figures import CONCURRENCY, TOTAL_WAVEFORMS, fig3_point

PAPER_JPM = {1: 10.7, 2: 6.5, 4: 3.7, 8: 2.2}
PAPER_HOURS = {1: 14.1, 2: 11.9, 4: 12.5, 8: 15.7}


@pytest.mark.benchmark(group="fig3")
def test_fig3_concurrent_dagmans(benchmark):
    rows = benchmark.pedantic(
        lambda: {k: fig3_point(k, scaled(TOTAL_WAVEFORMS)).row() for k in CONCURRENCY},
        rounds=1,
        iterations=1,
    )
    header(
        "Fig 3 - concurrent DAGMans producing 16,000 waveforms (full input)",
        f"{'dagmans':>8} {'runtime_h':>10} {'sd_h':>7} {'jpm':>7} {'sd_jpm':>7} "
        f"{'paper_h':>8} {'paper_jpm':>10}",
    )
    for k in CONCURRENCY:
        mean_h, sd_h, mean_jpm, sd_jpm = rows[k]
        print(
            f"{k:>8} {mean_h:10.2f} {sd_h:7.2f} {mean_jpm:7.2f} {sd_jpm:7.2f} "
            f"{PAPER_HOURS[k]:8.1f} {PAPER_JPM[k]:10.1f}"
        )

    # Shape: per-DAGMan throughput decreases monotonically with k...
    jpms = [rows[k][2] for k in CONCURRENCY]
    assert jpms[0] > jpms[1] > jpms[2] > jpms[3]
    # ... roughly halving per doubling (paper: >=39.5% drops).
    for a, b in zip(jpms, jpms[1:]):
        assert b < 0.75 * a
    # Shape: runtime does NOT shrink proportionally — 8 DAGMans each
    # doing 1/8 of the work take comparable (not 8x smaller) time.
    hours = [rows[k][0] for k in CONCURRENCY]
    assert hours[3] > 0.5 * hours[0]

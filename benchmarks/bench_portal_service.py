"""Benchmarks of the multi-tenant portal service (``portal-service`` group).

What the service layer is for, measured:

* **Coalescing hit rate** — N tenants submitting from a shared pool of
  distinct scenarios must execute each scenario far fewer times than it
  was requested; the hit rate and execution count land in
  ``extra_info`` (and are asserted, so a regression that silently stops
  coalescing fails the bench, not just the trend line).
* **Queue-wait distribution** — p50/p99 virtual queue wait across all
  tickets at N simulated tenants, the fair-share/backpressure health
  numbers a gateway operator watches.
* **Service overhead** — the benchmark timing itself: one whole
  session at community scale, i.e. the queueing, negotiation,
  coalescing and deposit machinery plus the virtual-cost backend's
  ``SimulatedRunner.execute`` calls (a seeded makespan per distinct
  scenario; no pool simulation runs).
* **Identity** — the community session publishes the sha256 of its
  queue trace and its executed/coalesced counts in ``extra_info``;
  bench-smoke's group check pins them, so a speed-up that moved a
  placement or a virtual timestamp fails CI.

Run: ``PYTHONPATH=src pytest benchmarks/bench_portal_service.py -q
--benchmark-only``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.obs.stats import percentiles
from repro.service import SimulatedRunner, run_service_demo

#: Community-scale session: tenants x submissions per benchmark round.
N_TENANTS = 24
N_SUBMISSIONS = 192
N_DISTINCT = 8
N_WORKERS = 4


def _session(seed: int):
    return run_service_demo(
        n_tenants=N_TENANTS,
        n_submissions=N_SUBMISSIONS,
        n_distinct=N_DISTINCT,
        seed=seed,
        n_workers=N_WORKERS,
        runner=SimulatedRunner(),
    )


@pytest.mark.benchmark(group="portal-service")
def test_service_session_throughput(benchmark):
    """One full session: submission through deposit for every ticket."""
    report = benchmark(_session, 11)
    stats = report.stats
    assert stats.n_submitted == N_SUBMISSIONS
    assert stats.n_executed + stats.n_failed <= N_SUBMISSIONS
    # Coalescing must actually dedupe a shared-scenario community.
    assert stats.n_executed < N_SUBMISSIONS
    assert stats.coalescing_hit_rate > 0.0
    benchmark.extra_info["n_tenants"] = N_TENANTS
    benchmark.extra_info["n_submissions"] = N_SUBMISSIONS
    benchmark.extra_info["n_executed"] = stats.n_executed
    benchmark.extra_info["n_coalesced"] = stats.n_coalesced
    benchmark.extra_info["queue_trace_sha256"] = hashlib.sha256(
        repr(report.trace).encode()
    ).hexdigest()
    benchmark.extra_info["coalescing_hit_rate"] = round(
        stats.coalescing_hit_rate, 4
    )
    p50, p99 = percentiles(stats.queue_waits_s, (50.0, 99.0))
    benchmark.extra_info["queue_wait_p50_s"] = round(p50, 2)
    benchmark.extra_info["queue_wait_p99_s"] = round(p99, 2)


@pytest.mark.benchmark(group="portal-service")
def test_service_submission_fanin(benchmark):
    """Hot path in isolation: all tenants submit one identical scenario.

    The steady-state cost of a submission that coalesces — content
    digest, quota check, ticket fan-in — with exactly one execution at
    the end. The canonical "identical concurrent submissions" case.
    """
    report = benchmark(
        run_service_demo,
        n_tenants=16,
        n_submissions=128,
        n_distinct=1,
        seed=5,
        n_workers=2,
        runner=SimulatedRunner(),
    )
    stats = report.stats
    assert stats.n_submitted == 128
    # One distinct scenario: every submission that lands while a prior
    # identical one is still queued or running must fan in, so the
    # execution count stays well below the ticket count.
    assert stats.n_executed < stats.n_submitted
    assert stats.coalescing_hit_rate > 0.25
    benchmark.extra_info["n_executed"] = stats.n_executed
    benchmark.extra_info["coalescing_hit_rate"] = round(
        stats.coalescing_hit_rate, 4
    )

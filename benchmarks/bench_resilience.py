"""Benchmarks of the resilience layer (the ``bench-resilience`` group).

Two budgets from the PR's acceptance criteria:

* **Digest overhead on warm cache hits < 5%** — every disk load of a
  GF bank is sha256-verified against its sidecar; the per-process
  verification memo (stat-fingerprint quick check, see
  :func:`repro.integrity.read_verified`) means the hash runs once per
  file version, so steady-state warm hits pay only two extra ``stat``
  calls. ``test_warm_disk_hit_verified_overhead_budget`` measures
  the verified and unverified arms back to back and asserts the ratio;
  the two ``benchmark``-fixture arms archive the absolute numbers in
  the CI artifact. The unverified arm is the frozen loader of
  ``tests/oracles/gfcache_unverified.py``: the product cache has no
  switch that turns verification off.
* **Retry-path throughput** — the deterministic backoff machinery
  (:func:`repro.resilience.retry_call` and schedule derivation) sits on
  every chunk execution and transfer; it must be cheap enough to wrap
  hot paths unconditionally.

Run: ``PYTHONPATH=src pytest benchmarks/bench_resilience.py -q
--benchmark-only``.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.gfcache import GFCache, gf_bank_key
from repro.errors import TransferError
from repro.resilience import RetryPolicy, retry_call
from repro.seismo.geometry import build_chile_slab
from repro.seismo.greens import compute_gf_bank
from repro.seismo.stations import chilean_network
from tests.oracles.gfcache_unverified import UnverifiedGFCache


@pytest.fixture(scope="module")
def bank_inputs():
    geometry = build_chile_slab(n_strike=30, n_dip=15)
    network = chilean_network(30)
    bank = compute_gf_bank(geometry, network)
    key = gf_bank_key(geometry, network)
    return bank, key


def disk_cache(tmp_path, bank, key, verify):
    cache = (GFCache if verify else UnverifiedGFCache)(cache_dir=tmp_path)
    cache.put(key, bank)
    cache.clear()  # keep only the disk level
    cache.get(key)  # prime: the verified arm hashes once here
    return cache


def warm_hit(cache, key):
    cache.clear()  # drop memory so every call is a disk hit
    bank = cache.get(key)
    assert bank is not None
    return bank


# -- digest verification overhead ---------------------------------------------


def _median_hit_seconds(cache, key, rounds=7, iterations=20):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iterations):
            warm_hit(cache, key)
        samples.append((time.perf_counter() - start) / iterations)
    return statistics.median(samples)


@pytest.mark.benchmark(group="bench-resilience")
def test_warm_disk_hit_unverified(benchmark, tmp_path, bank_inputs):
    """Baseline arm: the warm disk hit without the digest check."""
    bank, key = bank_inputs
    cache = disk_cache(tmp_path, bank, key, verify=False)
    benchmark(warm_hit, cache, key)


@pytest.mark.benchmark(group="bench-resilience")
def test_warm_disk_hit_verified_overhead_budget(benchmark, tmp_path, bank_inputs):
    """Verified arm + acceptance: warm hits cost < 5% over unverified.

    The baseline is measured inline (median of manual timing rounds)
    so the assertion holds inside one test run; the verified arm's full
    distribution goes through the ``benchmark`` fixture into the CI
    artifact, with the measured overhead in ``extra_info``.
    """
    bank, key = bank_inputs
    baseline_cache = disk_cache(tmp_path / "baseline", bank, key, verify=False)
    baseline = _median_hit_seconds(baseline_cache, key)

    cache = disk_cache(tmp_path / "verified", bank, key, verify=True)
    benchmark(warm_hit, cache, key)
    assert cache.stats.integrity_failures == 0

    verified = benchmark.stats.stats.median
    overhead = verified / baseline - 1.0
    benchmark.extra_info["digest_overhead_pct"] = round(overhead * 100.0, 3)
    benchmark.extra_info["baseline_ms"] = round(baseline * 1e3, 4)
    assert overhead < 0.05


# -- retry-path throughput ----------------------------------------------------


@pytest.mark.benchmark(group="bench-resilience")
def test_retry_call_success_path(benchmark):
    """The wrapper's cost when nothing fails — what every healthy chunk
    and transfer pays for being retryable at all."""
    policy = RetryPolicy()

    def thousand_calls():
        for i in range(1000):
            retry_call(lambda: i, policy=policy, seed=0, keys=("bench", i))
        return 1000

    n = benchmark(thousand_calls)
    assert n == 1000


@pytest.mark.benchmark(group="bench-resilience")
def test_retry_call_backoff_path(benchmark):
    """Throughput with every call failing twice before succeeding —
    schedule derivation plus the retry loop, no sleeping."""
    policy = RetryPolicy(max_attempts=4)

    def flaky_hundred():
        total_backoff = 0.0
        for i in range(100):
            attempts = [0]

            def fn():
                attempts[0] += 1
                if attempts[0] <= 2:
                    raise TransferError("injected glitch")
                return attempts[0]

            out = retry_call(fn, policy=policy, seed=0, keys=("bench", i))
            total_backoff += out.total_delay_s
        return total_backoff

    total = benchmark(flaky_hundred)
    assert total > 0.0

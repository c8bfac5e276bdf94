"""Tests for repro.osg.transfer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.condor.jobs import JobSpec
from repro.errors import SimulationError
from repro.osg.transfer import SINGULARITY_IMAGE_MB, StashCache, TransferConfig
from tests.oracles.stash_lru import CappedTransferConfig, LruStashCache


def spec(files=None):
    return JobSpec(name="j", input_files=files or {})


def one_site_cache(**kwargs):
    defaults = dict(n_cache_sites=1, setup_overhead_s=0.0)
    defaults.update(kwargs)
    return StashCache(TransferConfig(**defaults))


def test_cold_then_warm():
    cache = one_site_cache(origin_mb_per_s=10.0, cache_mb_per_s=100.0, include_image=False)
    job = spec({"gf.npz": 1000.0})
    cold = cache.transfer_time(job, 0)
    warm = cache.transfer_time(job, 0)
    assert cold == pytest.approx(100.0)
    assert warm == pytest.approx(10.0)
    assert cache.n_cold_transfers == 1
    assert cache.n_warm_transfers == 1


def test_image_included_by_default():
    cache = one_site_cache()
    t = cache.transfer_time(spec(), 0)
    assert t == pytest.approx(SINGULARITY_IMAGE_MB / 25.0)


def test_setup_overhead_always_charged():
    cache = one_site_cache(setup_overhead_s=35.0, include_image=False)
    assert cache.transfer_time(spec(), 0) == pytest.approx(35.0)


def test_multiple_sites_cache_independently():
    cache = StashCache(
        TransferConfig(n_cache_sites=4, setup_overhead_s=0.0, include_image=False)
    )
    job = spec({"big.npz": 500.0})
    for i in range(40):
        cache.transfer_time(job, i % 4)
    # Every site eventually warmed exactly once.
    assert cache.n_cold_transfers == 4
    assert cache.n_warm_transfers == 36
    for site in range(4):
        assert cache.is_warm("big.npz", site)


def test_site_outside_the_cache_sites_rejected():
    cache = StashCache(TransferConfig(n_cache_sites=4))
    for site in (-1, 4):
        with pytest.raises(SimulationError, match="cache site"):
            cache.transfer_time(spec(), site)
    assert cache.n_cold_transfers == 0


def test_reset_clears_state():
    cache = one_site_cache(include_image=False)
    cache.transfer_time(spec({"f": 10.0}), 0)
    cache.reset()
    assert cache.n_cold_transfers == 0
    assert not cache.is_warm("f", 0)


def test_negative_file_size_rejected():
    cache = one_site_cache(include_image=False)
    bad = JobSpec(name="j", input_files={"f": 1.0})
    bad.input_files["f"] = -5.0  # bypass JobSpec validation deliberately
    with pytest.raises(SimulationError):
        cache.transfer_time(bad, 0)


def test_config_validation():
    with pytest.raises(SimulationError):
        TransferConfig(origin_mb_per_s=0.0)
    with pytest.raises(SimulationError):
        TransferConfig(n_cache_sites=0)
    with pytest.raises(SimulationError):
        TransferConfig(setup_overhead_s=-1.0)


def test_cold_transfer_slower_than_warm():
    cfg = TransferConfig()
    assert cfg.origin_mb_per_s < cfg.cache_mb_per_s


def test_no_cap_means_no_evictions():
    cache = one_site_cache(include_image=False)
    for i in range(50):
        cache.transfer_time(spec({f"f{i}": 1.0}), 0)
    assert all(cache.is_warm(f"f{i}", 0) for i in range(50))


def test_default_config_transfer_times_unchanged_by_lru_code():
    # The default cache must be bit-identical to the pre-LRU cache.
    files = {"a": 123.0, "b": 7.5, "c": 900.0}
    times_default = []
    times_huge_cap = []
    for cache, out in (
        (StashCache(TransferConfig(n_cache_sites=3)), times_default),
        (LruStashCache(CappedTransferConfig(n_cache_sites=3, max_entries_per_site=10_000)),
         times_huge_cap),
    ):
        rng = np.random.default_rng(5)
        for _ in range(30):
            out.append(cache.transfer_time(spec(dict(files)), int(rng.integers(3))))
    assert times_default == times_huge_cap


_FILE_NAMES = [f"f{i}.npy" for i in range(8)] + ["singularity.sif"]
_SIZES_MB = st.one_of(
    st.sampled_from([0.0, 1.5, 928.0, 2048.0]),
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from(_FILE_NAMES), _SIZES_MB, max_size=5),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=40,
    ),
    include_image=st.booleans(),
    setup=st.sampled_from([0.0, 35.0, 1.25]),
)
def test_uncapped_staging_matches_a_cap_above_every_file_count(jobs, include_image, setup):
    """The uncapped cache keeps sets of warm files and no recency order;
    a cache whose cap no site can reach evicts nothing either, so the
    two must agree bit for bit: every job's time, every counter and MB
    total, and which files are warm where."""
    caches = [
        StashCache(TransferConfig(
            n_cache_sites=4, setup_overhead_s=setup, include_image=include_image,
        )),
        LruStashCache(CappedTransferConfig(
            n_cache_sites=4, setup_overhead_s=setup, include_image=include_image,
            max_entries_per_site=len(_FILE_NAMES) + 1,
        )),
    ]
    times = [
        [cache.transfer_time(spec(dict(files)), site).hex() for files, site in jobs]
        for cache in caches
    ]
    assert times[0] == times[1]
    counters = [
        (c.n_cold_transfers, c.n_warm_transfers,
         c.cold_mb_total.hex(), c.warm_mb_total.hex(), c.total_transfer_seconds.hex())
        for c in caches
    ]
    assert counters[0] == counters[1]
    assert caches[1].n_evictions == 0
    warm = [
        {(name, site) for name in _FILE_NAMES for site in range(4) if c.is_warm(name, site)}
        for c in caches
    ]
    assert warm[0] == warm[1]


# -- injected transfer faults and the retry path -------------------------------


def one_site_faulted(fault_kwargs=None, **cfg_kwargs):
    from repro.faults import TransferFaults

    defaults = dict(n_cache_sites=1, setup_overhead_s=0.0)
    defaults.update(cfg_kwargs)
    return StashCache(
        TransferConfig(**defaults),
        faults=TransferFaults(**(fault_kwargs or {})),
    )


def test_zero_prob_faults_match_fault_free_times():
    """A fault model that never fires adds no time — only the stream
    draws differ, and those live on the model's private generator."""
    plain = one_site_cache(include_image=False)
    armed = one_site_faulted(include_image=False)
    job = spec({"gf.npz": 1000.0})
    for _ in range(5):
        assert plain.transfer_time(job, 0) == pytest.approx(
            armed.transfer_time(job, 0)
        )
    assert armed.n_transfer_faults == 0
    assert armed.total_backoff_seconds == 0.0


def test_fault_draws_deterministic_across_caches():
    def run(seed):
        cache = one_site_faulted(
            fault_kwargs=dict(failure_prob=0.3, slow_prob=0.2, seed=seed),
            include_image=False,
        )
        times = [
            cache.transfer_time(spec({f"f{i}": 50.0}), 0) for i in range(20)
        ]
        return times, cache.n_transfer_faults, cache.faults.n_slow

    a = run(4)
    assert a == run(4)  # same fault seed: identical times and counters
    assert a[1] >= 1 and a[2] >= 1  # the storm actually fired
    assert a != run(5)  # a different fault seed explores a different storm


def test_slow_attempt_multiplies_bandwidth_not_setup():
    cache = one_site_faulted(
        fault_kwargs=dict(slow_prob=0.999, slow_factor=4.0, seed=0),
        setup_overhead_s=35.0,
        origin_mb_per_s=10.0,
        include_image=False,
    )
    t = cache.transfer_time(spec({"f": 100.0}), 0)
    assert t == pytest.approx(35.0 + 4.0 * 10.0)
    assert cache.faults.n_slow == 1


def test_failed_attempts_pay_backoff_then_succeed():
    from repro.resilience import RetryPolicy

    cache = one_site_faulted(
        fault_kwargs=dict(failure_prob=0.999, seed=0),
        origin_mb_per_s=10.0,
        cache_mb_per_s=100.0,
        include_image=False,
    )
    t = cache.transfer_time(spec({"f": 100.0}), 0)
    # Every attempt failed: 1 cold + (max_attempts - 1) warm re-pulls,
    # the full backoff schedule, then the degraded direct origin pull.
    policy = RetryPolicy()
    schedule = policy.schedule(0, "transfer", "j")
    expected = 10.0 + (policy.max_attempts - 1) * 1.0 + sum(schedule) + 10.0
    assert t == pytest.approx(expected)
    assert cache.n_transfer_faults == policy.max_attempts
    assert cache.n_transfer_retries == len(schedule)
    assert cache.n_degraded_transfers == 1
    assert cache.total_backoff_seconds == pytest.approx(sum(schedule))


def test_reset_rewinds_fault_stream():
    cache = one_site_faulted(
        fault_kwargs=dict(failure_prob=0.3, slow_prob=0.2, seed=9),
        include_image=False,
    )

    def storm():
        return [cache.transfer_time(spec({"f": 10.0}), 0) for _ in range(10)]

    first = storm()
    counters = (cache.n_transfer_faults, cache.n_degraded_transfers)
    cache.reset()
    assert cache.n_transfer_faults == 0
    assert storm() == first  # identical replay after reset
    assert (cache.n_transfer_faults, cache.n_degraded_transfers) == counters

"""Tests for repro.vdc.storage."""

import pytest

from repro.errors import StorageError
from repro.vdc.storage import FederatedStorage, StorageSite


def federation():
    return FederatedStorage(
        [
            StorageSite("a", capacity_mb=1000.0, local_mb_per_s=100.0, wan_mb_per_s=10.0),
            StorageSite("b", capacity_mb=1000.0, local_mb_per_s=100.0, wan_mb_per_s=10.0),
            StorageSite("c", capacity_mb=50.0, local_mb_per_s=100.0, wan_mb_per_s=10.0),
        ]
    )


def test_store_and_replicas():
    fed = federation()
    fed.store("p", 100.0, "a")
    assert fed.replicas("p") == {"a"}
    assert fed.usage_mb("a") == 100.0


def test_store_duplicate_rejected():
    fed = federation()
    fed.store("p", 10.0, "a")
    with pytest.raises(StorageError):
        fed.store("p", 10.0, "b")


def test_store_over_capacity_rejected():
    fed = federation()
    with pytest.raises(StorageError):
        fed.store("big", 100.0, "c")  # c holds only 50 MB


def test_local_retrieval_fast():
    fed = federation()
    fed.store("p", 100.0, "a")
    assert fed.retrieval_time_s("p", "a") == pytest.approx(1.0)  # 100/100


def test_remote_retrieval_pays_wan_and_caches():
    fed = federation()
    fed.store("p", 100.0, "a")
    first = fed.retrieval_time_s("p", "b")
    assert first == pytest.approx(10.0)  # 100/10 over WAN
    assert "b" in fed.replicas("p")
    second = fed.retrieval_time_s("p", "b")
    assert second == pytest.approx(1.0)  # now local


def test_remote_retrieval_without_caching():
    fed = federation()
    fed.store("p", 100.0, "a")
    fed.retrieval_time_s("p", "b", cache=False)
    assert fed.replicas("p") == {"a"}


def test_cache_skipped_when_site_full():
    fed = federation()
    fed.store("p", 100.0, "a")
    # Site c (50 MB) cannot cache a 100 MB product, but retrieval works.
    t = fed.retrieval_time_s("p", "c")
    assert t == pytest.approx(10.0)
    assert "c" not in fed.replicas("p")


def test_explicit_replicate_and_drop():
    fed = federation()
    fed.store("p", 10.0, "a")
    fed.replicate("p", "b")
    assert fed.replicas("p") == {"a", "b"}
    fed.replicate("p", "b")  # idempotent
    fed.drop_replica("p", "a")
    assert fed.replicas("p") == {"b"}
    with pytest.raises(StorageError):
        fed.drop_replica("p", "b")  # last replica


def test_drop_missing_replica():
    fed = federation()
    fed.store("p", 10.0, "a")
    with pytest.raises(StorageError):
        fed.drop_replica("p", "b")


def test_unknown_product_and_site():
    fed = federation()
    with pytest.raises(StorageError):
        fed.replicas("nope")
    with pytest.raises(StorageError):
        fed.retrieval_time_s("nope", "a")
    with pytest.raises(StorageError):
        fed.site("zzz")
    fed.store("p", 10.0, "a")
    with pytest.raises(StorageError):
        fed.replicate("p", "zzz")


def test_validation():
    with pytest.raises(StorageError):
        FederatedStorage([])
    with pytest.raises(StorageError):
        FederatedStorage([StorageSite("a"), StorageSite("a")])
    with pytest.raises(StorageError):
        StorageSite("")
    with pytest.raises(StorageError):
        StorageSite("x", capacity_mb=0.0)
    with pytest.raises(StorageError):
        StorageSite("x", wan_mb_per_s=0.0)
    fed = federation()
    with pytest.raises(StorageError):
        fed.store("neg", -1.0, "a")


# -- bank-valued products routed through the GF cache -------------------------


def bank_federation(tmp_path):
    from repro.core.gfcache import GFCache

    return FederatedStorage(
        [
            StorageSite("origin", capacity_mb=10000.0),
            StorageSite("home", capacity_mb=10000.0),
        ],
        artifact_cache=GFCache(cache_dir=tmp_path / "gfstore"),
    )


def test_store_bank_places_replica_and_bytes(tmp_path, small_gf_bank):
    fed = bank_federation(tmp_path)
    size_mb = fed.store_bank("w_gf.mseed.npz", small_gf_bank, "origin")
    assert size_mb == pytest.approx(small_gf_bank.nbytes / (1024.0 * 1024.0))
    assert fed.replicas("w_gf.mseed.npz") == {"origin"}
    assert fed.usage_mb("origin") == pytest.approx(size_mb)
    assert fed.bank_key("w_gf.mseed.npz") is not None


def test_fetch_bank_returns_identical_bank_and_charges_time(
    tmp_path, small_gf_bank
):
    import numpy as np

    fed = bank_federation(tmp_path)
    fed.store_bank("w_gf.mseed.npz", small_gf_bank, "origin")
    bank, elapsed = fed.fetch_bank("w_gf.mseed.npz", "home")
    assert np.array_equal(bank.statics, small_gf_bank.statics)
    assert np.array_equal(bank.travel_time_s, small_gf_bank.travel_time_s)
    assert elapsed > 0  # WAN transfer charged
    # The retrieval left a cached replica: a refetch is a fast local read.
    assert "home" in fed.replicas("w_gf.mseed.npz")
    _, local = fed.fetch_bank("w_gf.mseed.npz", "home")
    assert local < elapsed


def test_store_bank_shares_content_key_with_producers(tmp_path, small_gf_bank,
                                                      small_geometry, small_network):
    from repro.core.gfcache import GFCache, gf_bank_key

    cache = GFCache(cache_dir=tmp_path / "shared")
    fed = FederatedStorage([StorageSite("origin")], artifact_cache=cache)
    key = gf_bank_key(small_geometry, small_network)
    fed.store_bank("w_gf.mseed.npz", small_gf_bank, "origin", key=key)
    # An in-process consumer asking for the same inputs hits the entry
    # the VDC stored — one implementation, one namespace.
    warm = cache.get_or_compute(small_geometry, small_network)
    assert warm is small_gf_bank
    assert cache.stats.memory_hits == 1


def test_materialize_writes_disk_store(tmp_path, small_gf_bank):
    fed = bank_federation(tmp_path)
    fed.store_bank("w_gf.mseed.npz", small_gf_bank, "origin")
    path = fed.materialize("w_gf.mseed.npz")
    assert path is not None and path.exists()
    assert fed.materialize("plain-product") is None  # no bank attached


def test_bank_methods_require_cache(small_gf_bank):
    fed = federation()
    with pytest.raises(StorageError):
        fed.store_bank("p", small_gf_bank, "a")
    fed.store("p", 1.0, "a")
    with pytest.raises(StorageError):
        fed.fetch_bank("p", "a")


def test_float32_bank_halves_charged_bytes_and_transfer(tmp_path, small_gf_bank):
    fed = bank_federation(tmp_path)
    size_full = fed.store_bank("gf_f64.npz", small_gf_bank, "origin")
    size_half = fed.store_bank(
        "gf_f32.npz", small_gf_bank.astype("float32"), "origin"
    )
    assert size_half == pytest.approx(0.5 * size_full)
    assert fed.product_size_mb("gf_f32.npz") == pytest.approx(0.5 * size_full)
    assert fed.bank_dtype("gf_f64.npz") == "float64"
    assert fed.bank_dtype("gf_f32.npz") == "float32"
    # The WAN transfer (cache=False keeps the placement untouched) is
    # charged at half the seconds too — the Stash/OSDF saving.
    t_full = fed.retrieval_time_s("gf_f64.npz", "home", cache=False)
    t_half = fed.retrieval_time_s("gf_f32.npz", "home", cache=False)
    assert t_half == pytest.approx(0.5 * t_full)


def test_product_size_unknown_product(tmp_path, small_gf_bank):
    fed = bank_federation(tmp_path)
    with pytest.raises(StorageError):
        fed.product_size_mb("nope")
    assert fed.bank_dtype("nope") is None


# -- resilience: breakers, outages, failover, rebuild --------------------------


def resilient_federation(**kwargs):
    from repro.faults import SiteOutage
    from repro.resilience import BreakerPolicy

    defaults = dict(
        breaker_policy=BreakerPolicy(
            failure_threshold=2, cooldown_s=100.0, probe_cost_s=5.0
        ),
        outages=[SiteOutage("fast", 50.0, 250.0)],
    )
    defaults.update(kwargs)
    fed = FederatedStorage(
        [
            StorageSite("home", local_mb_per_s=100.0, wan_mb_per_s=10.0),
            StorageSite("fast", wan_mb_per_s=80.0),
            StorageSite("slow", wan_mb_per_s=20.0),
        ],
        **defaults,
    )
    return fed


def test_drop_last_replica_needs_force():
    """Satellite: a cleanup must not silently destroy the only copy."""
    fed = federation()
    fed.store("p", 10.0, "a")
    with pytest.raises(StorageError, match="force=True"):
        fed.drop_replica("p", "a")
    assert fed.replicas("p") == {"a"}  # refused drop changed nothing
    fed.drop_replica("p", "a", force=True)
    assert fed.replicas("p") == set()
    assert fed.usage_mb("a") == 0.0


def test_zero_replicas_is_unavailable_not_keyerror():
    from repro.errors import StorageUnavailableError

    fed = federation()
    fed.store("p", 10.0, "a")
    fed.drop_replica("p", "a", force=True)
    with pytest.raises(StorageUnavailableError) as err:
        fed.retrieval_time_s("p", "b")
    assert err.value.penalty_s == 0.0
    assert err.value.retryable


def test_legacy_paths_unchanged_without_now():
    """Breakers configured but no ``now=``: bit-identical to the plain
    model (every site implicitly healthy, no probe charges)."""
    plain = federation()
    armed = resilient_federation()
    plain.store("p", 100.0, "a")
    armed.store("p", 100.0, "home")
    assert armed.retrieval_time_s("p", "home") == plain.retrieval_time_s("p", "a")
    assert armed.n_failovers == 0
    # A WAN read from a site inside its outage window: no clock, so no
    # probe charge, no failover, and the replica is cached as usual.
    plain.store("q", 100.0, "a")
    armed.store("q", 100.0, "fast")
    assert armed.retrieval_time_s("q", "home") == plain.retrieval_time_s("q", "b") == 10.0
    assert armed.replicas("q") == {"fast", "home"}
    assert armed.n_failovers == 0


def test_failover_prefers_home_then_fastest_egress():
    fed = resilient_federation(outages=[])
    fed.store("p", 100.0, "fast")
    fed.replicate("p", "slow")
    fed.replicate("p", "home")
    # Home replica: local read, no failover.
    assert fed.retrieval_time_s("p", "home", now=0.0) == pytest.approx(1.0)
    assert fed.n_failovers == 0
    fed.drop_replica("p", "home")
    # No home replica: the fastest-egress source serves, WAN-priced at
    # the *home* site's ingress — same charge as the legacy model.
    t = fed.retrieval_time_s("p", "home", now=0.0, cache=False)
    assert t == pytest.approx(100.0 / 10.0)


def test_outage_probe_costs_and_breaker_trips():
    from repro.resilience import BREAKER_OPEN

    fed = resilient_federation()
    fed.store("p", 100.0, "fast")
    fed.replicate("p", "slow")
    # Outside the window: fast serves, breakers untouched.
    assert fed.retrieval_time_s("p", "home", now=0.0, cache=False) == pytest.approx(10.0)
    # Inside: the fast probe fails (+5 s), slow serves the transfer.
    t = fed.retrieval_time_s("p", "home", now=60.0, cache=False)
    assert t == pytest.approx(5.0 + 10.0)
    assert fed.n_failovers == 1
    assert fed.breakers["fast"].consecutive_failures == 1
    # Second dark probe trips the breaker (threshold 2)...
    fed.retrieval_time_s("p", "home", now=70.0, cache=False)
    assert fed.breakers["fast"].state == BREAKER_OPEN
    # ...and while it is open the dead site is skipped for free.
    t = fed.retrieval_time_s("p", "home", now=80.0, cache=False)
    assert t == pytest.approx(10.0)
    # After the outage and cooldown, the half-open probe heals it.
    fed.retrieval_time_s("p", "home", now=300.0, cache=False)
    assert fed.breakers["fast"].state == "closed"


def test_all_sources_dark_raises_with_penalty():
    from repro.errors import StorageUnavailableError
    from repro.faults import SiteOutage

    fed = resilient_federation(
        outages=[SiteOutage("fast", 0.0, 100.0), SiteOutage("slow", 0.0, 100.0)]
    )
    fed.store("p", 100.0, "fast")
    fed.replicate("p", "slow")
    with pytest.raises(StorageUnavailableError) as err:
        fed.retrieval_time_s("p", "home", now=10.0)
    assert err.value.penalty_s == pytest.approx(10.0)  # two failed probes
    assert err.value.retryable


def test_site_healthy_and_add_outage():
    from repro.faults import SiteOutage

    fed = resilient_federation(outages=[])
    assert fed.site_healthy("fast", now=60.0)
    fed.add_outage(SiteOutage("fast", 50.0, 250.0))
    assert not fed.site_healthy("fast", now=60.0)
    assert fed.site_healthy("fast", now=250.0)  # window is half-open
    with pytest.raises(StorageError):
        fed.add_outage(SiteOutage("nope", 0.0, 1.0))
    assert not fed.in_outage("slow", 60.0)


def test_breaker_snapshots_sorted():
    fed = resilient_federation()
    snaps = fed.breaker_snapshots(now=0.0)
    assert [s["name"] for s in snaps] == ["fast", "home", "slow"]
    assert all(s["state"] == "closed" for s in snaps)


def test_fetch_bank_rebuilds_when_no_replica_survives(tmp_path, small_gf_bank):
    import numpy as np

    from repro.core.gfcache import GFCache
    from repro.resilience import BreakerPolicy

    fed = FederatedStorage(
        [StorageSite("origin"), StorageSite("home")],
        artifact_cache=GFCache(cache_dir=tmp_path / "store"),
        breaker_policy=BreakerPolicy(failure_threshold=2, probe_cost_s=5.0),
    )
    fed.store_bank("gf/p", small_gf_bank, "origin")
    fed.drop_replica("gf/p", "origin", force=True)
    rebuilt = []

    def rebuild():
        rebuilt.append(None)
        return small_gf_bank

    with pytest.raises(StorageError):
        fed.fetch_bank("gf/p", "home", now=0.0)  # no rebuild: surfaces
    bank, elapsed = fed.fetch_bank("gf/p", "home", now=0.0, rebuild=rebuild)
    assert np.array_equal(bank.statics, small_gf_bank.statics)
    assert elapsed == 0.0  # no probes sunk: replicas were simply gone
    assert rebuilt and fed.n_rebuilds == 1


def test_fetch_bank_rebuilds_quarantined_bytes(tmp_path, small_gf_bank):
    """Replica bookkeeping says the product exists, but the one physical
    copy fails its digest: fetch quarantines and rebuilds."""
    from repro.core.gfcache import GFCache

    cache = GFCache(cache_dir=tmp_path / "store")
    fed = FederatedStorage(
        [StorageSite("origin"), StorageSite("home")], artifact_cache=cache
    )
    fed.store_bank("gf/p", small_gf_bank, "origin")
    cache.clear()  # memory gone; disk is the only copy
    path = next((tmp_path / "store").glob("gf_*.npz"))
    path.write_bytes(path.read_bytes()[:100])
    bank, _ = fed.fetch_bank("gf/p", "home", rebuild=lambda: small_gf_bank)
    assert bank is small_gf_bank
    assert fed.n_rebuilds == 1
    assert len(cache.quarantined) == 1

"""Tests for repro.core.gfcache."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.gfcache import (
    CACHE_DIR_ENV,
    GFCache,
    attach_shared_bank,
    gf_bank_key,
    publish_shared_bank,
)
from repro.errors import CacheError
from repro.seismo.geometry import build_chile_slab
from repro.seismo.greens import compute_gf_bank
from repro.seismo.stations import chilean_network


# -- content-addressed keys ---------------------------------------------------


def test_key_deterministic(small_geometry, small_network):
    assert gf_bank_key(small_geometry, small_network) == gf_bank_key(
        small_geometry, small_network
    )


def test_key_invalidates_on_geometry_change(small_geometry, small_network):
    other = build_chile_slab(n_strike=11, n_dip=6)
    assert gf_bank_key(small_geometry, small_network) != gf_bank_key(
        other, small_network
    )


def test_key_invalidates_on_station_change(small_geometry, small_network):
    other = chilean_network(9)
    assert gf_bank_key(small_geometry, small_network) != gf_bank_key(
        small_geometry, other
    )


def test_key_invalidates_on_model_params(small_geometry, small_network):
    base = gf_bank_key(small_geometry, small_network)
    assert base != gf_bank_key(small_geometry, small_network, gf_method="okada")
    assert base != gf_bank_key(small_geometry, small_network, rake_deg=45.0)
    assert base != gf_bank_key(
        small_geometry, small_network, shear_velocity_kms=4.0
    )
    assert base != gf_bank_key(small_geometry, small_network, min_distance_km=2.0)


# -- two-level cache ----------------------------------------------------------


def test_warm_memory_hit_bit_identical(small_geometry, small_network):
    cache = GFCache(cache_dir=None)
    cold = cache.get_or_compute(small_geometry, small_network)
    warm = cache.get_or_compute(small_geometry, small_network)
    reference = compute_gf_bank(small_geometry, small_network)
    assert np.array_equal(warm.statics, reference.statics)
    assert np.array_equal(warm.travel_time_s, reference.travel_time_s)
    assert warm is cold  # memory level returns the resident object
    assert cache.stats.memory_hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1


def test_warm_disk_hit_bit_identical(tmp_path, small_geometry, small_network):
    cache = GFCache(cache_dir=tmp_path)
    cold = cache.get_or_compute(small_geometry, small_network)
    cache.clear()  # drop memory, keep disk
    warm = cache.get_or_compute(small_geometry, small_network)
    assert warm is not cold
    assert np.array_equal(warm.statics, cold.statics)
    assert np.array_equal(warm.travel_time_s, cold.travel_time_s)
    assert warm.station_names == cold.station_names
    assert cache.stats.disk_hits == 1
    assert len(cache.disk_keys()) == 1


def test_invalidation_recomputes(small_geometry, small_network):
    cache = GFCache()
    cache.get_or_compute(small_geometry, small_network)
    cache.get_or_compute(small_geometry, small_network)
    assert cache.stats.misses == 1  # warm hit, no recompute
    other = build_chile_slab(n_strike=12, n_dip=6)
    cache.get_or_compute(other, small_network)
    assert cache.stats.misses == 2  # different geometry -> different key -> recompute


def test_lru_eviction_survives_on_disk(tmp_path, small_geometry, small_network):
    cache = GFCache(cache_dir=tmp_path, max_memory_entries=1)
    cache.get_or_compute(small_geometry, small_network)
    other = build_chile_slab(n_strike=12, n_dip=6)
    cache.get_or_compute(other, small_network)
    assert cache.stats.evictions == 1
    assert len(cache.memory_keys()) == 1
    assert len(cache.disk_keys()) == 2
    # The evicted bank comes back from disk, not a recompute.
    cache.get_or_compute(small_geometry, small_network)
    assert cache.stats.disk_hits == 1


def test_cache_dir_from_environment(tmp_path, monkeypatch, small_geometry, small_network):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envstore"))
    cache = GFCache()
    cache.get_or_compute(small_geometry, small_network)
    assert len(list((tmp_path / "envstore").glob("gf_*.npz"))) == 1


def test_clear_disk(tmp_path, small_geometry, small_network):
    cache = GFCache(cache_dir=tmp_path)
    cache.get_or_compute(small_geometry, small_network)
    cache.clear(disk=True)
    assert cache.memory_keys() == []
    assert cache.disk_keys() == []


def test_validation_errors():
    with pytest.raises(CacheError):
        GFCache(max_memory_entries=0)
    with pytest.raises(CacheError):
        GFCache().put("", None)


# -- shared-memory publishing -------------------------------------------------


def _reader_checksum(handle):
    """Worker: attach the shared bank and checksum its arrays."""
    bank = attach_shared_bank(handle)
    return (
        float(np.sum(bank.statics)),
        float(np.sum(bank.travel_time_s)),
        bank.statics.flags.writeable,
    )


def test_publish_attach_roundtrip(small_gf_bank, small_geometry, small_network):
    key = gf_bank_key(small_geometry, small_network)
    handle, segments = publish_shared_bank(small_gf_bank, key)
    try:
        attached = attach_shared_bank(handle)
        assert np.array_equal(attached.statics, small_gf_bank.statics)
        assert np.array_equal(attached.travel_time_s, small_gf_bank.travel_time_s)
        assert attached.station_names == small_gf_bank.station_names
        assert not attached.statics.flags.writeable
        assert not attached.travel_time_s.flags.writeable
    finally:
        for shm in segments:
            shm.close()
            shm.unlink()


def test_concurrent_readers_see_identical_bytes(small_gf_bank):
    """Many processes reading the same segments observe the same data —
    read-only views cannot corrupt the shared bank."""
    handle, segments = publish_shared_bank(small_gf_bank, "concurrent-test")
    expected = (
        float(np.sum(small_gf_bank.statics)),
        float(np.sum(small_gf_bank.travel_time_s)),
    )
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=4, mp_context=ctx) as pool:
            results = list(pool.map(_reader_checksum, [handle] * 12))
        for statics_sum, travel_sum, writeable in results:
            assert (statics_sum, travel_sum) == expected
            assert not writeable
        # The parent's copy is untouched after all that reading.
        assert float(np.sum(small_gf_bank.statics)) == expected[0]
    finally:
        for shm in segments:
            shm.close()
            shm.unlink()


def test_attach_after_unlink_raises(small_gf_bank):
    handle, segments = publish_shared_bank(small_gf_bank, "gone-test")
    for shm in segments:
        shm.close()
        shm.unlink()
    with pytest.raises(CacheError):
        attach_shared_bank(handle)


# -- dtype keying (no silent cross-dtype hits) --------------------------------


def test_key_invalidates_on_dtype(small_geometry, small_network):
    base = gf_bank_key(small_geometry, small_network)
    assert gf_bank_key(small_geometry, small_network, dtype="float64") == base
    assert gf_bank_key(small_geometry, small_network, dtype="float32") != base


def test_get_or_compute_keeps_dtypes_separate(small_geometry, small_network):
    cache = GFCache()
    full = cache.get_or_compute(small_geometry, small_network)
    half = cache.get_or_compute(small_geometry, small_network, dtype="float32")
    assert full.dtype == np.float64
    assert half.dtype == np.float32
    assert cache.stats.misses == 2  # float32 never hits the float64 entry
    # Both entries are warm now.
    again = cache.get_or_compute(small_geometry, small_network, dtype="float32")
    assert again is half
    assert cache.stats.memory_hits == 1


def test_get_or_compute_okada_dtype(small_geometry, small_network):
    cache = GFCache()
    bank = cache.get_or_compute(
        small_geometry, small_network, gf_method="okada", dtype="float32"
    )
    assert bank.dtype == np.float32


def test_publish_attach_float32_roundtrip(small_gf_bank):
    half = small_gf_bank.astype("float32")
    handle, segments = publish_shared_bank(half, "f32key")
    try:
        attached = attach_shared_bank(handle)
        assert attached.dtype == np.float32
        assert np.array_equal(attached.statics, half.statics)
    finally:
        for shm in segments:
            shm.close()
            shm.unlink()


# -- integrity: corrupt disk entries degrade to a recompute -------------------


def test_truncated_disk_entry_is_quarantined_miss(tmp_path, small_geometry,
                                                  small_network):
    """Regression: a truncated ``.npz`` used to leak zipfile.BadZipFile
    out of get(); now it is an IntegrityError handled as a cache miss."""
    cache = GFCache(cache_dir=tmp_path)
    cold = cache.get_or_compute(small_geometry, small_network)
    path = next(tmp_path.glob("gf_*.npz"))
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    cache.clear()  # force the disk path
    recomputed = cache.get_or_compute(small_geometry, small_network)
    assert np.array_equal(recomputed.statics, cold.statics)
    assert cache.stats.integrity_failures == 1
    assert cache.stats.misses == 2  # the corrupt lookup counted as a miss
    assert len(cache.quarantined) == 1
    quarantined = cache.quarantined[0]
    assert quarantined.parent == tmp_path / "quarantine"
    assert quarantined.with_name(quarantined.name + ".reason").exists()
    # The store healed itself: the recompute rewrote the disk entry.
    cache.clear()
    again = cache.get_or_compute(small_geometry, small_network)
    assert np.array_equal(again.statics, cold.statics)
    assert cache.stats.disk_hits == 1


def test_bitflipped_disk_entry_fails_digest(tmp_path, small_geometry,
                                            small_network):
    cache = GFCache(cache_dir=tmp_path)
    cache.get_or_compute(small_geometry, small_network)
    path = next(tmp_path.glob("gf_*.npz"))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    cache.clear()
    cache.get_or_compute(small_geometry, small_network)
    assert cache.stats.integrity_failures == 1
    assert len(cache.quarantined) == 1


def test_clear_disk_leaves_quarantine_untouched(tmp_path, small_geometry,
                                                small_network):
    cache = GFCache(cache_dir=tmp_path)
    cache.get_or_compute(small_geometry, small_network)
    path = next(tmp_path.glob("gf_*.npz"))
    path.write_bytes(b"not a zip")
    cache.clear()
    assert cache.get(
        # the key of the only disk entry
        cache.disk_keys()[0] if cache.disk_keys() else "gone"
    ) is None
    assert len(cache.quarantined) == 1
    cache.clear(disk=True)
    assert cache.quarantined[0].exists()  # evidence outlives cache resets


# -- entry codec: stored members, deflated entries still read ------------------


def _member_compression(path) -> set[int]:
    import zipfile

    with zipfile.ZipFile(path) as zf:
        return {info.compress_type for info in zf.infolist()}


def test_new_entries_store_members_uncompressed(tmp_path, small_geometry, small_network):
    import zipfile

    GFCache(cache_dir=tmp_path).get_or_compute(small_geometry, small_network)
    (path,) = tmp_path.glob("gf_*.npz")
    assert _member_compression(path) == {zipfile.ZIP_STORED}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_entry_written_deflated_still_verifies_and_hits(
    tmp_path, small_geometry, small_network, dtype
):
    """An entry the deflating codec wrote (``np.savez_compressed``, with
    its sidecar) verifies, loads bit-identically and counts as a disk hit."""
    import zipfile

    from repro.integrity import publish_artifact, verify_artifact

    bank = compute_gf_bank(small_geometry, small_network, dtype=dtype)
    path = tmp_path / f"gf_{gf_bank_key(small_geometry, small_network, dtype=dtype)}.npz"
    publish_artifact(
        path,
        lambda tmp: np.savez_compressed(
            tmp,
            statics=bank.statics,
            travel_time_s=bank.travel_time_s,
            station_names=np.array(bank.station_names),
            fault_name=np.array(bank.fault_name),
        ),
    )
    assert _member_compression(path) == {zipfile.ZIP_DEFLATED}
    assert verify_artifact(path)

    cache = GFCache(cache_dir=tmp_path)
    loaded = cache.get_or_compute(small_geometry, small_network, dtype=dtype)
    assert cache.stats.disk_hits == 1
    assert cache.stats.misses == 0
    assert cache.quarantined == []
    assert loaded.statics.dtype == np.dtype(dtype)
    assert loaded.statics.tobytes() == bank.statics.tobytes()
    assert loaded.travel_time_s.tobytes() == bank.travel_time_s.tobytes()
    assert loaded.station_names == bank.station_names
    assert loaded.fault_name == bank.fault_name

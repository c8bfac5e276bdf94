"""Contract tests of repro.cache.ArtifactCache, run against both kinds.

``GFCache`` and ``KLCache`` share one implementation of the memory LRU,
the verified disk tier, quarantine, stats and metrics; every test here
runs once per kind, so the two cannot drift apart again.
"""

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pytest

from repro import obs
from repro.core import gfcache
from repro.core.gfcache import GFCache
from repro.seismo import klcache
from repro.seismo.klcache import KLCache

#: A 4x3 window on the small 10x6 mesh.
PATCH = (np.arange(2, 6)[:, None] * 6 + np.arange(1, 4)[None, :]).ravel()


@dataclass(frozen=True)
class Kind:
    """One cache kind: its class, env var, and a family of distinct
    entries (``lookup(cache, n)`` computes or fetches entry ``n``)."""

    cls: type
    env_var: str
    lookup: Callable
    arrays: Callable

    @property
    def prefix(self) -> str:
        return self.cls.prefix


@pytest.fixture(params=["gf", "kl"])
def kind(request, small_geometry, small_network, small_distances):
    if request.param == "gf":
        return Kind(
            GFCache,
            gfcache.CACHE_DIR_ENV,
            lambda cache, n: cache.get_or_compute(
                small_geometry, small_network, rake_deg=90.0 + n
            ),
            lambda bank: (bank.statics, bank.travel_time_s),
        )
    return Kind(
        KLCache,
        klcache.CACHE_DIR_ENV,
        lambda cache, n: cache.get_or_compute(
            small_distances, PATCH, 50.0, 30.0, n_modes=4 + n
        ),
        lambda basis: (basis.eigenvalues, basis.eigenvectors),
    )


def _same(kind, a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(kind.arrays(a), kind.arrays(b)))


def _only_entry(cache):
    (key,) = cache.disk_keys()
    return cache.disk_path(key)


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _bitflip(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def test_memory_and_disk_hits(tmp_path, kind):
    cache = kind.cls(cache_dir=tmp_path)
    cold = kind.lookup(cache, 0)
    assert kind.lookup(cache, 0) is cold  # memory level: the resident object
    cache.clear()  # drop memory, keep disk
    warm = kind.lookup(cache, 0)
    assert warm is not cold and _same(kind, warm, cold)
    assert dataclasses.asdict(cache.stats) == {
        "memory_hits": 1, "disk_hits": 1, "misses": 1,
        "stores": 1, "evictions": 0, "integrity_failures": 0,
    }
    assert (cache.stats.hits, cache.stats.lookups) == (2, 3)


def test_lru_eviction_survives_on_disk(tmp_path, kind):
    cache = kind.cls(cache_dir=tmp_path, max_memory_entries=1)
    kind.lookup(cache, 0)
    kind.lookup(cache, 1)
    assert cache.stats.evictions == 1
    assert len(cache.memory_keys()) == 1
    assert len(cache.disk_keys()) == 2
    kind.lookup(cache, 0)  # evicted from memory, back from disk
    assert cache.stats.disk_hits == 1
    assert cache.stats.misses == 2


def test_contains_leaves_counters_untouched(tmp_path, kind):
    cache = kind.cls(cache_dir=tmp_path)
    kind.lookup(cache, 0)
    (key,) = cache.memory_keys()
    before = dataclasses.asdict(cache.stats)
    assert cache.contains(key)
    assert cache.contains(key, on_disk=True)
    assert not cache.contains("0" * 64)
    cache.clear()
    assert cache.contains(key)  # still on disk
    assert dataclasses.asdict(cache.stats) == before


@pytest.mark.parametrize("damage", [_truncate, _bitflip], ids=["truncated", "bitflipped"])
def test_corrupt_entry_is_quarantined_miss_then_healed(tmp_path, kind, damage):
    cache = kind.cls(cache_dir=tmp_path)
    cold = kind.lookup(cache, 0)
    damage(_only_entry(cache))
    cache.clear()
    recomputed = kind.lookup(cache, 0)
    assert _same(kind, recomputed, cold)
    assert cache.stats.integrity_failures == 1
    assert cache.stats.misses == 2  # the corrupt lookup counted as a miss
    (quarantined,) = cache.quarantined
    assert quarantined.parent == tmp_path / "quarantine"
    assert quarantined.with_name(quarantined.name + ".reason").exists()
    # The recompute rewrote the entry: a fresh cache disk-hits it.
    healed = kind.cls(cache_dir=tmp_path)
    assert _same(kind, kind.lookup(healed, 0), cold)
    assert healed.stats.disk_hits == 1 and healed.stats.integrity_failures == 0


def test_clear_disk_leaves_quarantine(tmp_path, kind):
    cache = kind.cls(cache_dir=tmp_path)
    kind.lookup(cache, 0)
    _only_entry(cache).write_bytes(b"not a zip")
    cache.clear()
    kind.lookup(cache, 0)
    (quarantined,) = cache.quarantined
    cache.clear(disk=True)
    assert cache.disk_keys() == [] and cache.memory_keys() == []
    assert not list(tmp_path.glob(f"{kind.prefix}_*"))  # sidecars went too
    assert quarantined.exists()  # evidence outlives cache resets


def test_cache_dir_from_environment(tmp_path, monkeypatch, kind):
    monkeypatch.setenv(kind.env_var, str(tmp_path / "env"))
    cache = kind.cls()
    assert cache.cache_dir == tmp_path / "env"
    kind.lookup(cache, 0)
    assert len(list((tmp_path / "env").glob(f"{kind.prefix}_*.npz"))) == 1


def test_memory_only_without_directory(monkeypatch, kind):
    monkeypatch.delenv(kind.env_var, raising=False)
    cache = kind.cls()
    kind.lookup(cache, 0)
    assert cache.cache_dir is None and cache.disk_keys() == []
    assert cache.ensure_on_disk(cache.memory_keys()[0]) is None


def test_metrics_agree_with_stats(tmp_path, kind):
    with obs.observe() as session:
        cache = kind.cls(cache_dir=tmp_path)
        entry = kind.lookup(cache, 0)  # miss + store
        kind.lookup(cache, 0)  # memory hit
        cache.clear()
        kind.lookup(cache, 0)  # disk hit
        _truncate(_only_entry(cache))
        cache.clear()
        kind.lookup(cache, 0)  # integrity failure + miss + store
    registry = session.registry
    stats = cache.stats
    labels = {"cache": kind.prefix}

    def lookups(outcome):
        return registry.counter_value(
            "repro_cache_lookups_total", {**labels, "outcome": outcome}
        )

    assert (stats.memory_hits, stats.disk_hits, stats.misses) == (1, 1, 2)
    assert lookups("memory_hit") == stats.memory_hits
    assert lookups("disk_hit") == stats.disk_hits
    assert lookups("miss") == stats.misses
    assert registry.counter_total("repro_cache_lookups_total") == stats.lookups
    assert registry.counter_value("repro_cache_stores_total", labels) == stats.stores
    assert registry.counter_value(
        "repro_cache_integrity_failures_total", labels
    ) == stats.integrity_failures == 1
    assert registry.counter_value(
        "repro_cache_bytes_total", {**labels, "event": "hit"}
    ) == stats.hits * entry.nbytes
    assert registry.counter_value(
        "repro_cache_bytes_total", {**labels, "event": "store"}
    ) == stats.stores * entry.nbytes


def test_gf_and_kl_caches_share_one_directory(tmp_path, small_geometry,
                                              small_network, small_distances):
    gf, kl = GFCache(tmp_path), KLCache(tmp_path)
    gf.get_or_compute(small_geometry, small_network)
    kl.get_or_compute(small_distances, PATCH, 50.0, 30.0, n_modes=4)
    assert len(gf.disk_keys()) == len(kl.disk_keys()) == 1
    assert not set(gf.disk_keys()) & set(kl.disk_keys())
    kl_keys = kl.disk_keys()
    gf.clear(disk=True)
    assert gf.disk_keys() == [] and kl.disk_keys() == kl_keys
    fresh = KLCache(tmp_path)
    fresh.get_or_compute(small_distances, PATCH, 50.0, 30.0, n_modes=4)
    assert fresh.stats.disk_hits == 1
    fresh.clear(disk=True)
    assert list(tmp_path.iterdir()) == []

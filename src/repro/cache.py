"""One content-addressed artifact cache for every recycled product.

The paper's main lever is recycling expensive artifacts: the Phase-B
Green's-function archive that Stash/OSDF stages to every Phase-C job,
and the Phase-A inputs reused across rupture jobs ("recycling them is
crucial"). :class:`ArtifactCache` is the one in-process implementation
of that lever. It holds

* an in-memory LRU of decoded entries (the worker-node cache tier),
  bounded by entry count and, for codecs that set
  :attr:`ArtifactCache.max_memory_bytes`, by resident bytes;
* an optional on-disk ``.npz`` tier (the OSDF-origin analog) written
  through :func:`~repro.integrity.publish_artifact` and read back under
  sha256 sidecar verification — a damaged entry is quarantined and
  counted as a miss, so corruption degrades to a recompute;
* one :class:`CacheStats` and the ``repro_cache_*`` metrics.

Each kind of artifact is a subclass that adds only its key function, its
entry codec and ``get_or_compute``:
:class:`repro.core.gfcache.GFCache` (GF banks, ``gf_<key>.npz``) and
:class:`repro.seismo.klcache.KLCache` (K-L bases, ``kl_<key>.npz``). The
filename prefix keeps both kinds apart in one shared directory.
"""

from __future__ import annotations

import os
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Generic, TypeVar

from repro import obs
from repro.errors import CacheError, IntegrityError, ReproError
from repro.integrity import publish_artifact, quarantine_artifact

__all__ = ["CacheStats", "ArtifactCache"]

T = TypeVar("T")

#: Lookup outcomes: :class:`CacheStats` field -> ``outcome`` metric label.
_OUTCOMES = {"memory_hits": "memory_hit", "disk_hits": "disk_hit", "misses": "miss"}


@dataclass
class CacheStats:
    """Hit/miss counters of one cache (mutable, cumulative)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Disk entries that failed digest verification or parsing and were
    #: quarantined (each such lookup also counts as a miss — the
    #: degraded-mode contract: corruption becomes a recompute).
    integrity_failures: int = 0

    @property
    def hits(self) -> int:
        """All hits, either level."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses


class ArtifactCache(Generic[T]):
    """Two-level (memory LRU + disk ``.npz``) content-addressed cache.

    Subclasses set :attr:`prefix`, :attr:`noun` and :attr:`env_var` and
    implement the entry codec, :meth:`_save` and :meth:`_load`. Entries
    must expose ``nbytes`` (their array bytes, for the byte metrics).

    Parameters
    ----------
    cache_dir:
        Directory of the on-disk store. ``None`` reads the subclass's
        :attr:`env_var`; when that is unset too, the cache is
        memory-only (still amortizes within a process).
    max_memory_entries:
        LRU capacity. Entries evicted from memory survive on disk when a
        ``cache_dir`` is configured.

    A codec whose :attr:`max_memory_bytes` is set also evicts, oldest
    first, while the memory level holds more bytes than that; the entry
    just stored or read always stays, so a lookup right after a store is
    a memory hit even for an entry larger than the budget. Every
    :meth:`put` still writes the disk tier.

    Every disk load verifies the entry's sha256 sidecar. A failed check
    — or an entry that cannot be parsed at all — is quarantined (moved
    into ``cache_dir/quarantine/``, never deleted) and treated as a miss.
    """

    #: Disk filename prefix (``<prefix>_<key>.npz``) and ``cache`` label.
    prefix = ""
    #: What one entry is, for error messages.
    noun = "artifact"
    #: Environment variable naming the default disk directory.
    env_var = ""
    #: Budget of the memory level in entry bytes (``nbytes``); ``None``
    #: bounds it by :attr:`max_memory_entries` alone.
    max_memory_bytes: int | None = None

    def __init__(
        self,
        cache_dir: str | Path | None,
        max_memory_entries: int,
    ) -> None:
        if max_memory_entries < 1:
            raise CacheError(
                f"max_memory_entries must be >= 1, got {max_memory_entries}"
            )
        if cache_dir is None:
            cache_dir = os.environ.get(self.env_var, "").strip() or None
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_memory_entries = int(max_memory_entries)
        self._memory: OrderedDict[str, T] = OrderedDict()
        #: Bytes (``nbytes``) of the entries the memory level holds.
        self.memory_bytes = 0
        self.stats = CacheStats()
        #: Paths of quarantined artifacts, in quarantine order.
        self.quarantined: list[Path] = []

    # -- entry codec ---------------------------------------------------------

    def _save(self, entry: T, path: Path) -> None:
        """Write one entry to ``path`` (a temp file ending in ``.npz``)."""
        raise NotImplementedError

    def _load(self, path: Path) -> T:
        """Read one disk entry through ``read_verified`` and parse it.

        A digest mismatch raises :class:`~repro.errors.IntegrityError`;
        parse failures may raise anything :meth:`get` classifies as
        corruption.
        """
        raise NotImplementedError

    # -- paths ---------------------------------------------------------------

    def disk_path(self, key: str) -> Path | None:
        """On-disk location of a key, or ``None`` for memory-only caches."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{self.prefix}_{key}.npz"

    # -- primitive get/put ---------------------------------------------------

    def get(self, key: str) -> T | None:
        """Look a key up (memory first, then disk); ``None`` on miss.

        A disk entry that fails its digest check or cannot be parsed
        (truncated/bit-flipped ``.npz``) is quarantined and reported as
        a miss — the caller recomputes and re-stores, so a corrupted
        entry never surfaces as a wrong answer or a raw
        ``zipfile.BadZipFile``.
        """
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self._count("memory_hits", entry)
            return entry
        path = self.disk_path(key)
        if path is not None and path.exists():
            try:
                entry = self._load(path)
            except IntegrityError as exc:
                self._quarantine(path, str(exc))
            except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError,
                    ReproError) as exc:
                self._quarantine(path, f"corrupt {self.noun} {path.name}: {exc}")
            else:
                self._remember(key, entry)
                self._count("disk_hits", entry)
                return entry
        self._count("misses")
        return None

    def _quarantine(self, path: Path, reason: str) -> None:
        self._count("integrity_failures")
        self.quarantined.append(quarantine_artifact(path, reason=reason))

    def put(self, key: str, entry: T) -> None:
        """Insert an entry under a key in both levels."""
        if not key:
            raise CacheError("cache key must be non-empty")
        self._remember(key, entry)
        self.ensure_on_disk(key)
        self._count("stores", entry)

    def _remember(self, key: str, entry: T) -> None:
        old = self._memory.pop(key, None)
        if old is not None:
            self.memory_bytes -= old.nbytes  # type: ignore[attr-defined]
        self._memory[key] = entry
        self.memory_bytes += entry.nbytes  # type: ignore[attr-defined]
        budget = self.max_memory_bytes
        while len(self._memory) > 1 and (
            len(self._memory) > self.max_memory_entries
            or (budget is not None and self.memory_bytes > budget)
        ):
            _, evicted = self._memory.popitem(last=False)
            self.memory_bytes -= evicted.nbytes  # type: ignore[attr-defined]
            self.stats.evictions += 1

    def _count(self, event: str, entry: T | None = None) -> None:
        """Bump one :class:`CacheStats` field and its ``repro_cache_*`` counter.

        Lookups count into ``repro_cache_lookups_total{cache, outcome}``,
        stores into ``repro_cache_stores_total`` and quarantines into
        ``repro_cache_integrity_failures_total``. A hit or store also
        adds the entry's bytes to ``repro_cache_bytes_total{cache, event}``.
        """
        setattr(self.stats, event, getattr(self.stats, event) + 1)
        if not obs.enabled():
            return
        labels = {"cache": self.prefix}
        if event in _OUTCOMES:
            obs.counter_add(
                "repro_cache_lookups_total", 1, {**labels, "outcome": _OUTCOMES[event]}
            )
        else:
            obs.counter_add(f"repro_cache_{event}_total", 1, labels)
        if entry is not None:
            obs.counter_add(
                "repro_cache_bytes_total",
                entry.nbytes,  # type: ignore[attr-defined]
                {**labels, "event": "store" if event == "stores" else "hit"},
            )

    def ensure_on_disk(self, key: str) -> Path | None:
        """Materialize a memory-resident entry into the disk store.

        This is what a Stash/OSDF *prefetch* amounts to in-process:
        making the product durable and shareable ahead of demand.
        Returns the written (or existing) path, or ``None`` when the
        cache has no disk store or the key is unknown.
        """
        path = self.disk_path(key)
        if path is None or path.exists():
            return path
        entry = self._memory.get(key)
        if entry is None:
            return None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            publish_artifact(path, lambda tmp: self._save(entry, tmp))
        except OSError as exc:
            raise CacheError(
                f"cannot write {self.noun} to cache_dir {self.cache_dir}: {exc}"
            ) from exc
        return path

    def contains(self, key: str, on_disk: bool = False) -> bool:
        """Membership test that does not touch the hit/miss counters."""
        if not on_disk and key in self._memory:
            return True
        path = self.disk_path(key)
        return path is not None and path.exists()

    # -- maintenance ---------------------------------------------------------

    def clear(self, disk: bool = False) -> None:
        """Drop the memory level; with ``disk=True`` also this cache's
        disk entries.

        Digest sidecars go with their artifacts; other caches' entries
        in the same directory and the quarantine directory are never
        touched (evidence outlives cache resets).
        """
        self._memory.clear()
        self.memory_bytes = 0
        if disk and self.cache_dir is not None and self.cache_dir.exists():
            for pattern in (f"{self.prefix}_*.npz", f"{self.prefix}_*.npz.sha256"):
                for path in self.cache_dir.glob(pattern):
                    path.unlink()

    def memory_keys(self) -> list[str]:
        """Keys currently resident in memory, LRU-oldest first."""
        return list(self._memory)

    def disk_keys(self) -> list[str]:
        """Keys present in the disk store."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return []
        start = len(self.prefix) + 1
        return sorted(
            p.name[start : -len(".npz")]
            for p in self.cache_dir.glob(f"{self.prefix}_*.npz")
        )

"""Karhunen-Loève basis cache: recycling the Phase-A eigendecomposition.

The paper's Phase-A story is built on recycling: the distance-matrix
``.npy`` pair is computed by one bootstrap job and reused by every
parallel rupture job ("recycling them is crucial"). But the *per-rupture*
kernel still pays an O(p^2) von Kármán correlation build plus an O(p^3)
eigendecomposition for each rupture patch, and those depend only on a
small set of inputs — the patch window, the correlation lengths, the
Hurst exponent and the K-L truncation. Two ruptures with the same inputs
redo identical linear algebra; a re-run of the same deterministic catalog
redoes all of it.

This module gives Phase A the same lever :mod:`repro.core.gfcache` gives
Phase B:

* a **content-addressed key** (:func:`kl_basis_key`) over exactly the
  inputs that determine a basis — the distance matrices' content digest,
  the patch indices (window shape *and* position), both correlation
  lengths, the Hurst exponent and the mode count;
* a two-level :class:`KLCache` — in-memory LRU over
  :class:`~repro.seismo.spectra.KarhunenLoeveBasis` objects backed by an
  optional on-disk ``.npz`` store (point ``REPRO_KL_CACHE_DIR`` at a
  shared directory to reuse bases across processes and runs);
* an **opt-in quantized-correlation-length mode** for catalog sweeps:
  rounding the continuous scaling-law lengths onto a grid makes nearby
  ruptures share cache entries at the cost of slightly different
  numerics. It is **off by default** precisely because it changes the
  sampled slip fields; the exact mode is bit-identical to the uncached
  path.

Exact-mode guarantee: a cold ``get_or_compute`` runs the very same
kernel calls the uncached path runs, and both the memory and the
``.npz`` level round-trip float64 losslessly — so warm hits reproduce
cold-path ruptures bit-for-bit.
"""

from __future__ import annotations

import hashlib
import io
import os
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import CacheError, IntegrityError, ReproError
from repro.integrity import publish_artifact, quarantine_artifact, read_verified
from repro.seismo.distance import DistanceMatrices
from repro.seismo.spectra import KarhunenLoeveBasis, von_karman_correlation

__all__ = ["kl_basis_key", "KLCacheStats", "KLCache"]

#: Environment variable naming a default on-disk store directory.
CACHE_DIR_ENV = "REPRO_KL_CACHE_DIR"


def kl_basis_key(
    distances: DistanceMatrices,
    patch: np.ndarray,
    corr_len_strike_km: float,
    corr_len_dip_km: float,
    hurst: float = 0.75,
    n_modes: int | None = None,
) -> str:
    """Content-addressed cache key of a patch K-L basis.

    The key hashes every input that flows into the correlation build and
    eigendecomposition: the distance matrices' content digest, the patch
    indices (which encode the window's shape and position on the mesh),
    the two correlation lengths, the Hurst exponent and the truncation.
    Any change to any of them yields a different key — the
    cache-invalidation rule, same as :func:`repro.core.gfcache.gf_bank_key`.
    """
    idx = np.ascontiguousarray(np.asarray(patch, dtype=np.int64))
    h = hashlib.sha256()
    h.update(b"klbasis-v1\x1f")
    h.update(distances.content_digest.encode("ascii") + b"\x1f")
    h.update(np.int64([idx.size]).tobytes())
    h.update(idx.tobytes())
    h.update(np.float64([corr_len_strike_km, corr_len_dip_km, hurst]).tobytes())
    h.update(str(n_modes).encode("ascii"))
    return h.hexdigest()


@dataclass
class KLCacheStats:
    """Hit/miss counters of one :class:`KLCache` (mutable, cumulative)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Disk entries that failed digest verification or parsing and were
    #: quarantined (each such lookup also counts as a miss).
    integrity_failures: int = 0

    @property
    def hits(self) -> int:
        """All hits, either level."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses


def _observe_kl_lookup(outcome: str, basis) -> None:
    """Emit one K-L lookup into the obs registry (no-op when disabled)."""
    if not obs.enabled():
        return
    obs.counter_add(
        "repro_cache_lookups_total", 1, {"cache": "kl", "outcome": outcome}
    )
    if basis is not None:
        obs.counter_add(
            "repro_cache_bytes_total",
            basis.eigenvalues.nbytes + basis.eigenvectors.nbytes,
            {"cache": "kl", "event": "hit"},
        )


class KLCache:
    """Two-level (memory LRU + disk ``.npz``) K-L basis cache.

    Parameters
    ----------
    cache_dir:
        Directory of the on-disk store. ``None`` reads the
        ``REPRO_KL_CACHE_DIR`` environment variable; when that is unset
        too, the cache is memory-only (still amortizes within a
        process).
    max_memory_entries:
        LRU capacity. Bases evicted from memory survive on disk when a
        ``cache_dir`` is configured. Patch bases are far smaller than GF
        banks (p x k floats), so the default is generous.
    quantize_step_km:
        ``None`` (default) keys on the exact correlation lengths — the
        bit-identical mode. A positive value switches on the
        **numerics-changing** quantized mode: both correlation lengths
        are rounded to the nearest multiple of the step *before* the
        correlation is built, so ruptures with nearby scaling-law draws
        share one basis. Use only for high-hit-rate catalog sweeps where
        slip-field perturbations at the quantization scale are
        acceptable.
    verify_digests:
        Verify each disk entry's sha256 sidecar on load (default); a
        failed check or unparseable entry is quarantined into
        ``cache_dir/quarantine/`` and treated as a miss, same contract
        as :class:`repro.core.gfcache.GFCache`.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        max_memory_entries: int = 128,
        quantize_step_km: float | None = None,
        verify_digests: bool = True,
    ) -> None:
        if max_memory_entries < 1:
            raise CacheError(
                f"max_memory_entries must be >= 1, got {max_memory_entries}"
            )
        if quantize_step_km is not None and quantize_step_km <= 0:
            raise CacheError(
                f"quantize_step_km must be positive, got {quantize_step_km}"
            )
        if cache_dir is None:
            env = os.environ.get(CACHE_DIR_ENV, "").strip()
            cache_dir = env or None
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_memory_entries = int(max_memory_entries)
        self.quantize_step_km = (
            float(quantize_step_km) if quantize_step_km is not None else None
        )
        self.verify_digests = bool(verify_digests)
        self._memory: OrderedDict[str, KarhunenLoeveBasis] = OrderedDict()
        self.stats = KLCacheStats()
        #: Paths of quarantined artifacts, in quarantine order.
        self.quarantined: list[Path] = []

    # -- quantized mode -------------------------------------------------------

    def effective_lengths(
        self, corr_len_strike_km: float, corr_len_dip_km: float
    ) -> tuple[float, float]:
        """The correlation lengths actually used (and keyed).

        Exact mode returns the inputs unchanged; quantized mode snaps
        both onto the configured grid (never below one step, to keep
        them positive).
        """
        step = self.quantize_step_km
        if step is None:
            return float(corr_len_strike_km), float(corr_len_dip_km)
        return (
            max(step, round(corr_len_strike_km / step) * step),
            max(step, round(corr_len_dip_km / step) * step),
        )

    # -- paths ---------------------------------------------------------------

    def disk_path(self, key: str) -> Path | None:
        """On-disk location of a key, or ``None`` for memory-only caches."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"kl_{key}.npz"

    # -- primitive get/put ---------------------------------------------------

    def get(self, key: str) -> KarhunenLoeveBasis | None:
        """Look a key up (memory first, then disk); ``None`` on miss.

        A disk entry that fails its digest check or cannot be parsed is
        quarantined and reported as a miss — corruption degrades to a
        re-eigendecomposition, never a wrong basis or a raw
        ``zipfile.BadZipFile``.
        """
        basis = self._memory.get(key)
        if basis is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            _observe_kl_lookup("memory_hit", basis)
            return basis
        path = self.disk_path(key)
        if path is not None and path.exists():
            try:
                basis = self._load_disk(path)
            except IntegrityError as exc:
                self.stats.integrity_failures += 1
                obs.counter_add(
                    "repro_cache_integrity_failures_total", 1, {"cache": "kl"}
                )
                self.quarantined.append(
                    quarantine_artifact(path, reason=str(exc))
                )
            else:
                self._remember(key, basis)
                self.stats.disk_hits += 1
                _observe_kl_lookup("disk_hit", basis)
                return basis
        self.stats.misses += 1
        _observe_kl_lookup("miss", None)
        return None

    def _load_disk(self, path: Path) -> KarhunenLoeveBasis:
        """Digest-verified parse of one disk entry."""
        data = read_verified(path, verify=self.verify_digests)
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as npz:
                return KarhunenLoeveBasis(
                    eigenvalues=npz["eigenvalues"],
                    eigenvectors=npz["eigenvectors"],
                )
        except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError,
                ReproError) as exc:
            raise IntegrityError(
                f"corrupt K-L basis {path.name}: {exc}"
            ) from exc

    def put(self, key: str, basis: KarhunenLoeveBasis) -> None:
        """Insert a basis under a key in both levels."""
        if not key:
            raise CacheError("cache key must be non-empty")
        self._remember(key, basis)
        path = self.disk_path(key)
        if path is not None and not path.exists():
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                publish_artifact(
                    path,
                    lambda tmp: np.savez(
                        tmp,
                        eigenvalues=basis.eigenvalues,
                        eigenvectors=basis.eigenvectors,
                    ),
                )
            except OSError as exc:
                raise CacheError(
                    f"cannot write K-L basis to cache_dir {self.cache_dir}: {exc}"
                ) from exc
        self.stats.stores += 1
        if obs.enabled():
            obs.counter_add("repro_cache_stores_total", 1, {"cache": "kl"})
            obs.counter_add(
                "repro_cache_bytes_total",
                basis.eigenvalues.nbytes + basis.eigenvectors.nbytes,
                {"cache": "kl", "event": "store"},
            )

    def _remember(self, key: str, basis: KarhunenLoeveBasis) -> None:
        self._memory[key] = basis
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def contains(self, key: str, on_disk: bool = False) -> bool:
        """Membership test that does not touch the hit/miss counters."""
        if not on_disk and key in self._memory:
            return True
        path = self.disk_path(key)
        return path is not None and path.exists()

    # -- the main entry point ------------------------------------------------

    def get_or_compute(
        self,
        distances: DistanceMatrices,
        patch: np.ndarray,
        corr_len_strike_km: float,
        corr_len_dip_km: float,
        hurst: float = 0.75,
        n_modes: int | None = None,
    ) -> KarhunenLoeveBasis:
        """Return the patch basis for these inputs, computing it at most once.

        The cold path runs the exact kernel calls
        :meth:`~repro.seismo.ruptures.RuptureGenerator._sample_slip` runs
        without a cache (unique-lag correlation + truncated ``eigh``), so
        warm hits are bit-identical to the uncached computation. In
        quantized mode the lengths are snapped first (numerics-changing;
        see :attr:`quantize_step_km`).
        """
        patch = np.asarray(patch, dtype=np.int64)
        corr_s, corr_d = self.effective_lengths(
            corr_len_strike_km, corr_len_dip_km
        )
        key = kl_basis_key(
            distances, patch, corr_s, corr_d, hurst=hurst, n_modes=n_modes
        )
        basis = self.get(key)
        if basis is None:
            corr = von_karman_correlation(
                distances.along_strike[np.ix_(patch, patch)],
                distances.down_dip[np.ix_(patch, patch)],
                corr_s,
                corr_d,
                hurst,
            )
            basis = KarhunenLoeveBasis.from_correlation(corr, n_modes=n_modes)
            self.put(key, basis)
        return basis

    # -- maintenance ---------------------------------------------------------

    def clear(self, disk: bool = False) -> None:
        """Drop the memory level; with ``disk=True`` also the disk store."""
        self._memory.clear()
        if disk and self.cache_dir is not None and self.cache_dir.exists():
            for path in self.cache_dir.glob("kl_*.npz"):
                path.unlink()
            for path in self.cache_dir.glob("kl_*.npz.sha256"):
                path.unlink()

    def memory_keys(self) -> list[str]:
        """Keys currently resident in memory, LRU-oldest first."""
        return list(self._memory)

    def disk_keys(self) -> list[str]:
        """Keys present in the disk store."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return []
        return sorted(
            p.name[len("kl_") : -len(".npz")]
            for p in self.cache_dir.glob("kl_*.npz")
        )

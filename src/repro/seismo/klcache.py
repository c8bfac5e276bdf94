"""Karhunen-Loève basis cache: recycling the Phase-A eigendecomposition.

The paper's Phase-A story is built on recycling: the distance-matrix
``.npy`` pair is computed by one bootstrap job and reused by every
parallel rupture job ("recycling them is crucial"). But the *per-rupture*
kernel still pays an O(p^2) von Kármán correlation build plus an O(p^3)
eigendecomposition for each rupture patch, and those depend only on a
small set of inputs — the patch window, the correlation lengths, the
Hurst exponent and the K-L truncation. Two ruptures with the same inputs
redo identical linear algebra; a re-run of the same deterministic catalog
redoes all of it. The correlation lengths scale from continuous draws of
each rupture's dimensions, so within one cold catalog the inputs do not
repeat: the cache pays off when a catalog runs again.

This module gives Phase A the same lever :mod:`repro.core.gfcache` gives
Phase B:

* a **content-addressed key** (:func:`kl_basis_key`) over exactly the
  inputs that determine a basis — the distance matrices' content digest,
  the patch indices (window shape *and* position), both correlation
  lengths, the Hurst exponent and the mode count;
* :class:`KLCache` — the basis codec over the shared two-level
  :class:`~repro.cache.ArtifactCache`: an in-memory LRU of
  :class:`~repro.seismo.spectra.KarhunenLoeveBasis` objects, held to
  :attr:`KLCache.max_memory_bytes` (2 MiB), backed by an optional
  on-disk ``.npz`` store (point ``REPRO_KL_CACHE_DIR`` at a shared
  directory to reuse bases across processes and runs).

A cold ``get_or_compute`` runs :func:`patch_basis`, as the uncached
path does, and both the memory and the ``.npz`` level round-trip float64
losslessly — so warm hits reproduce cold-path ruptures bit-for-bit.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np

from repro.cache import ArtifactCache
from repro.integrity import read_verified
from repro.seismo.distance import DistanceMatrices
from repro.seismo.spectra import KarhunenLoeveBasis, patch_correlation

__all__ = ["kl_basis_key", "patch_basis", "KLCache"]

#: Environment variable naming a default on-disk store directory.
CACHE_DIR_ENV = "REPRO_KL_CACHE_DIR"


def patch_basis(
    distances: DistanceMatrices,
    patch: np.ndarray,
    corr_len_strike_km: float,
    corr_len_dip_km: float,
    hurst: float = 0.75,
    n_modes: int | None = None,
) -> KarhunenLoeveBasis:
    """Compute the truncated K-L basis of a patch's von Kármán correlation.

    The one computation behind every patch basis, cached or not: the
    patch correlation from the mesh's lag table
    (:func:`~repro.seismo.spectra.patch_correlation`), then the
    truncated eigendecomposition.
    """
    corr = patch_correlation(
        distances.lag_table, patch, corr_len_strike_km, corr_len_dip_km, hurst
    )
    return KarhunenLoeveBasis.from_correlation(corr, n_modes=n_modes)


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
    # v2: bases are solved on one BLAS thread; a v1 entry may hold a
    # basis solved on several, whose bits depend on the thread count.
    h.update(b"klbasis-v2\x1f")
    h.update(distances.content_digest.encode("ascii") + b"\x1f")
    h.update(np.int64([idx.size]).tobytes())
    h.update(idx.tobytes())
    h.update(np.float64([corr_len_strike_km, corr_len_dip_km, hurst]).tobytes())
    h.update(str(n_modes).encode("ascii"))
    return h.hexdigest()


class KLCache(ArtifactCache[KarhunenLoeveBasis]):
    """K-L basis cache: :class:`~repro.cache.ArtifactCache` with the
    basis codec (disk entries ``kl_<key>.npz``).

    Parameters
    ----------
    cache_dir:
        Directory of the on-disk store. ``None`` reads the
        ``REPRO_KL_CACHE_DIR`` environment variable; when that is unset
        too, the cache is memory-only.
    max_memory_entries:
        LRU capacity. Bases evicted from memory survive on disk when a
        ``cache_dir`` is configured.

    The memory level also holds at most :attr:`max_memory_bytes` of
    bases, the newest one aside: about nine of the largest 30x15-mesh
    bases (420 x 64 float64, 210 KiB each). A cold catalog never repeats
    a key, so a larger memory level would only keep bases no lookup
    reads; a run that repeats a catalog reads them back from disk,
    bit-identical.
    """

    prefix = "kl"
    noun = "K-L basis"
    env_var = CACHE_DIR_ENV
    max_memory_bytes = 2 * 2**20

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        max_memory_entries: int = 128,
    ) -> None:
        super().__init__(cache_dir, max_memory_entries)

    def _save(self, basis: KarhunenLoeveBasis, path: Path) -> None:
        np.savez(path, eigenvalues=basis.eigenvalues, eigenvectors=basis.eigenvectors)

    def _load(self, path: Path) -> KarhunenLoeveBasis:
        data = read_verified(path)
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            return KarhunenLoeveBasis(
                eigenvalues=npz["eigenvalues"], eigenvectors=npz["eigenvectors"]
            )

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

        The cold path is :func:`patch_basis`, which
        :meth:`~repro.seismo.ruptures.RuptureGenerator._sample_slip` also
        calls without a cache, so warm hits are bit-identical to the
        uncached computation.
        """
        patch = np.asarray(patch, dtype=np.int64)
        key = kl_basis_key(
            distances, patch, corr_len_strike_km, corr_len_dip_km,
            hurst=hurst, n_modes=n_modes,
        )
        basis = self.get(key)
        if basis is None:
            basis = patch_basis(
                distances, patch, corr_len_strike_km, corr_len_dip_km, hurst, n_modes
            )
            self.put(key, basis)
        return basis

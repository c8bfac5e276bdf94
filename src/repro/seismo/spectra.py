"""Von Kármán correlated random fields via Karhunen-Loève expansion.

FakeQuakes' "semistochastic" slip (LeVeque, Waagan & González 2016;
Melgar et al. 2016) draws heterogeneous slip from a random field whose
spatial correlation follows a von Kármán autocorrelation function with
anisotropic correlation lengths along strike and down dip. The field is
sampled with a truncated Karhunen-Loève (K-L) expansion: eigendecompose
the correlation matrix once, then each realization is a cheap linear
combination of the leading eigenmodes.

This module is deliberately generic (it takes the two distance matrices
and correlation lengths) so it is reusable and property-testable on its
own; the rupture generator layers magnitude scaling and positivity on
top.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg
import scipy.special

from repro.errors import RuptureError

__all__ = ["von_karman_correlation", "KarhunenLoeveBasis"]


#: (library glob, getter, setter) of the OpenBLAS copies scipy's Linux
#: wheels bundle in ``scipy.libs``: ``libscipy_openblas`` with prefixed
#: symbols (the scipy-openblas32 build, as in scipy 1.17's wheels) and
#: the plain ``libopenblas`` with unprefixed ones (older wheels).
_BUNDLED_OPENBLAS = (
    ("libscipy_openblas*.so*", "scipy_openblas_get_num_threads",
     "scipy_openblas_set_num_threads"),
    ("libopenblas*.so*", "openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_openblas_threads(
    libs: Path,
) -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the first OpenBLAS in
    ``libs`` that exports a :data:`_BUNDLED_OPENBLAS` pair, or ``None``.

    Loading the library by path returns the copy :mod:`scipy.linalg`
    already mapped.
    """
    for pattern, getter, setter in _BUNDLED_OPENBLAS:
        for path in sorted(libs.glob(pattern)):
            lib = ctypes.CDLL(str(path))
            try:
                get, put = getattr(lib, getter), getattr(lib, setter)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread controls of scipy's bundled OpenBLAS; ``None`` on a
    build without one (e.g. scipy built against a system OpenBLAS or
    MKL, or a wheel that keeps its libraries elsewhere)."""
    return _find_openblas_threads(Path(scipy.__file__).parent.parent / "scipy.libs")


#: Serializes the one-thread regions: the thread count is process state.
_BLAS_LOCK = threading.Lock()


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the enclosed scipy LAPACK calls on one OpenBLAS thread, then
    restore the previous count.

    A threaded eigensolve sums in a thread-count-dependent order, so
    the same correlation matrix would give slightly different bases
    (and catalogs) on hosts with different core counts. Where the
    bundled OpenBLAS is not found, the calls run at whatever thread
    count the BLAS has.
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, put = api
    with _BLAS_LOCK:
        previous = get()
        put(1)
        try:
            yield
        finally:
            put(previous)


def von_karman_correlation(
    d_strike: np.ndarray,
    d_dip: np.ndarray,
    corr_len_strike_km: float,
    corr_len_dip_km: float,
    hurst: float = 0.75,
) -> np.ndarray:
    """Anisotropic von Kármán correlation matrix.

    ``C(r) = G(r) / G(0)`` with ``G(r) = r**H * K_H(r)`` where ``K_H`` is
    the modified Bessel function of the second kind and the normalized
    lag is ``r = sqrt((ds/as)^2 + (dd/ad)^2)`` for correlation lengths
    ``as`` (strike) and ``ad`` (dip). ``H`` is the Hurst exponent; 0.75
    is the FakeQuakes default.

    Parameters
    ----------
    d_strike, d_dip:
        (n, n) separation matrices in km (see
        :class:`~repro.seismo.distance.DistanceMatrices`).
    corr_len_strike_km, corr_len_dip_km:
        Correlation lengths in km; must be positive.
    hurst:
        Hurst exponent in (0, 1).

    The Bessel kernel is evaluated once per *unique* normalized lag and
    the results are scattered back. On the regular mesh a patch of p
    subfaults has only O(n_strike * n_dip) distinct separation pairs, so
    this cuts the O(p^2) ``kv`` evaluations — the dominant Phase-A cost
    — down to the handful of distinct lags. Identical float inputs give
    identical ``kv`` outputs, so the result is bit-identical to one
    ``kv`` evaluation per matrix element.
    """
    if corr_len_strike_km <= 0 or corr_len_dip_km <= 0:
        raise RuptureError(
            f"correlation lengths must be positive, got "
            f"({corr_len_strike_km}, {corr_len_dip_km})"
        )
    if not (0.0 < hurst < 1.0):
        raise RuptureError(f"Hurst exponent must be in (0, 1), got {hurst}")
    r = np.hypot(
        np.asarray(d_strike, dtype=float) / corr_len_strike_km,
        np.asarray(d_dip, dtype=float) / corr_len_dip_km,
    )
    # G(0) is a removable singularity: lim_{r->0} r^H K_H(r) =
    # 2^(H-1) * Gamma(H). Mask zeros to avoid warnings, then patch.
    g0 = 2.0 ** (hurst - 1.0) * scipy.special.gamma(hurst)
    lags, inverse = np.unique(r, return_inverse=True)
    zero = lags == 0.0
    lz = np.where(zero, 1.0, lags)  # placeholder value, overwritten below
    g = lz**hurst * scipy.special.kv(hurst, lz)
    g[zero] = g0
    corr = g[inverse.reshape(r.shape)] / g0
    # Numerical cleanup: exact symmetry and unit diagonal.
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


@dataclass(frozen=True)
class KarhunenLoeveBasis:
    """Truncated K-L basis of a correlation matrix.

    Attributes
    ----------
    eigenvalues:
        The ``k`` largest eigenvalues, descending, all non-negative
        (tiny negative values from rounding are clipped to zero).
    eigenvectors:
        (n, k) matrix of the matching eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        if self.eigenvalues.ndim != 1:
            raise RuptureError("eigenvalues must be a vector")
        if self.eigenvectors.ndim != 2 or self.eigenvectors.shape[1] != self.eigenvalues.shape[0]:
            raise RuptureError(
                f"eigenvector shape {self.eigenvectors.shape} inconsistent with "
                f"{self.eigenvalues.shape[0]} eigenvalues"
            )
        if np.any(self.eigenvalues < 0):
            raise RuptureError("eigenvalues must be non-negative after clipping")

    @property
    def n_points(self) -> int:
        """Number of spatial points (subfaults) in the field."""
        return self.eigenvectors.shape[0]

    @property
    def n_modes(self) -> int:
        """Number of retained K-L modes."""
        return self.eigenvalues.shape[0]

    @property
    def nbytes(self) -> int:
        """Size of the basis arrays in bytes."""
        return int(self.eigenvalues.nbytes) + int(self.eigenvectors.nbytes)

    @classmethod
    def from_correlation(
        cls, correlation: np.ndarray, n_modes: int | None = None
    ) -> "KarhunenLoeveBasis":
        """Eigendecompose a symmetric correlation matrix.

        Uses :func:`scipy.linalg.eigh` with ``subset_by_index`` so only
        the leading ``n_modes`` eigenpairs are computed — the correlation
        matrix can be large (n_subfaults^2) and, per the optimization
        guidance, we avoid the full decomposition when a truncation is
        requested. The solve runs on one BLAS thread, so the basis is
        the same on every host and in every process.
        """
        c = np.asarray(correlation, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise RuptureError(f"correlation must be square, got {c.shape}")
        n = c.shape[0]
        k = n if n_modes is None else int(n_modes)
        if not (1 <= k <= n):
            raise RuptureError(f"n_modes must be in 1..{n}, got {n_modes}")
        with _one_blas_thread():
            vals, vecs = scipy.linalg.eigh(c, subset_by_index=(n - k, n - 1))
        # eigh returns ascending order; flip to descending. Materialize
        # the flipped view C-contiguous: BLAS picks layout-dependent
        # kernels in ``sample``'s matmul, so a basis reloaded from the
        # K-L cache's .npz store (always contiguous) must share the
        # in-memory layout to stay bit-identical.
        vals = np.clip(vals[::-1], 0.0, None)
        vecs = np.ascontiguousarray(vecs[:, ::-1])
        return cls(eigenvalues=vals, eigenvectors=vecs)

    def restricted(self, indices: np.ndarray) -> "KarhunenLoeveBasis":
        """Basis restricted to a subset of points (a rupture patch).

        Restriction of eigenvectors is not a true K-L basis of the
        restricted correlation, but FakeQuakes' practice of sampling on
        the patch is equivalent to drawing the global field and reading
        it on the patch, which is exactly what restriction gives us.
        """
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise RuptureError("cannot restrict K-L basis to an empty patch")
        return KarhunenLoeveBasis(
            eigenvalues=self.eigenvalues.copy(),
            eigenvectors=self.eigenvectors[idx, :],
        )

    def sample(self, rng: np.random.Generator, sigma: float = 1.0) -> np.ndarray:
        """Draw one zero-mean correlated field realization of length n.

        ``f = sum_k sqrt(lambda_k) z_k v_k`` with z ~ N(0, sigma^2).
        """
        if sigma < 0:
            raise RuptureError(f"sigma must be non-negative, got {sigma}")
        z = rng.normal(0.0, sigma, self.n_modes)
        return self.eigenvectors @ (np.sqrt(self.eigenvalues) * z)
